package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro/internal/comm"
	"repro/internal/forest"
	"repro/internal/octant"
)

// goldenVersion is part of every cache key; bump it when a workload's
// input generation changes.
const goldenVersion = 1

// goldenStep is the oracle's answer after one balance: the collective
// checksum and the global octant count.
type goldenStep struct {
	Checksum uint64 `json:"checksum"`
	Octants  int64  `json:"octants"`
}

type goldenFile struct {
	Key     string       `json:"key"`
	Steps   []goldenStep `json:"steps"`
	OracleS float64      `json:"oracle_s"`
}

// goldenKey identifies a (workload, seed) instance.  It hashes every
// input parameter the oracle's answer depends on.
func (b *bench) goldenKey() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|%s|%d|%d|%d|%d|%+v|%d|%d|%v",
		goldenVersion, b.spec.name, b.seed, b.spec.ranks, b.in.baseLevel, b.in.maxLevel,
		b.in.front, b.in.steps, overlayPercent, b.in.conn)
	return fmt.Sprintf("%s-s%d-%016x", b.spec.name, b.seed, h.Sum64())
}

// loadGolden returns the cached golden values for this instance, deriving
// and caching them on a miss.  The oracle is the serial RefBalance, whose
// output CheckForest must also accept; its cost is paid once per instance
// and is outside every timed region and outside set-up time.
func (b *bench) loadGolden(dir string) ([]goldenStep, time.Duration, error) {
	key := b.goldenKey()
	path := filepath.Join(dir, key+".json")
	if data, err := os.ReadFile(path); err == nil {
		var g goldenFile
		if err := json.Unmarshal(data, &g); err == nil && g.Key == key && len(g.Steps) > 0 {
			return g.Steps, 0, nil
		}
	}
	start := time.Now()
	steps, err := b.deriveGolden()
	elapsed := time.Since(start)
	if err != nil {
		return nil, elapsed, err
	}
	data, err := json.Marshal(goldenFile{Key: key, Steps: steps, OracleS: elapsed.Seconds()})
	if err != nil {
		return nil, elapsed, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, elapsed, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, elapsed, err
	}
	return steps, elapsed, os.Rename(tmp, path)
}

// deriveGolden replays the workload stage by stage on a world of its own.
// Before every balance the global forest is gathered and handed to the
// oracle.  A static workload has one such point, the set-up forest.  An
// AMR workload has one per step, and its chain continues only while the
// program's balanced forest equals the oracle's, so every later input is
// one the oracle vouched for.
func (b *bench) deriveGolden() ([]goldenStep, error) {
	w, err := b.newWorld()
	if err != nil {
		return nil, err
	}
	defer w.close()
	P := b.spec.ranks
	forests := make([]*forest.Forest, P)
	stage := func(fn func(c *comm.Comm, f *forest.Forest)) error {
		return w.run(func(c *comm.Comm) { fn(c, forests[c.Rank()]) })
	}
	if err := w.run(func(c *comm.Comm) { forests[c.Rank()] = b.newForest(c) }); err != nil {
		return nil, err
	}
	steps := 0
	if b.spec.amr {
		steps = b.in.steps
	}
	var golden []goldenStep
	for s := 0; s <= steps; s++ {
		if err := stage(func(c *comm.Comm, f *forest.Forest) { b.preBalance(c, f, s, nil) }); err != nil {
			return nil, fmt.Errorf("oracle replay step %d: %w", s, err)
		}
		want, err := b.oracle(forests)
		if err != nil {
			return nil, fmt.Errorf("oracle step %d: %w", s, err)
		}
		golden = append(golden, want)
		if !b.spec.amr {
			break
		}
		var got goldenStep
		err = stage(func(c *comm.Comm, f *forest.Forest) {
			f.Balance(c, b.k, b.opt)
			c.SetPhase(syncPhase)
			sum := f.Checksum(c)
			if c.Rank() == 0 {
				got = goldenStep{Checksum: sum, Octants: f.NumGlobal}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("oracle replay step %d: %w", s, err)
		}
		if got != want {
			return nil, fmt.Errorf("step %d: program balance %+v disagrees with oracle %+v", s, got, want)
		}
	}
	return golden, nil
}

// oracle gathers the per-rank forests into one global forest and balances
// it with the serial reference.
func (b *bench) oracle(forests []*forest.Forest) (goldenStep, error) {
	conn := b.in.conn
	trees := make([][]octant.Octant, conn.NumTrees())
	for _, f := range forests {
		for _, tc := range f.Local {
			trees[tc.Tree] = octant.AppendOctants(trees[tc.Tree], tc.Leaves)
		}
	}
	ref := forest.RefBalance(conn, trees, b.k)
	if err := forest.CheckForest(conn, ref, b.k); err != nil {
		return goldenStep{}, fmt.Errorf("oracle output not balanced: %w", err)
	}
	var n int64
	for _, t := range ref {
		n += int64(len(t))
	}
	if n == 0 {
		return goldenStep{}, errors.New("oracle returned an empty forest")
	}
	return goldenStep{Checksum: forest.ChecksumGlobal(ref), Octants: n}, nil
}
