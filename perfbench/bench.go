package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/octant"
)

// syncPhase labels the benchmark's own barriers and checksums, so their
// traffic never counts toward the program's message meters.
const syncPhase = "perfbench-sync"

// The public calls an iteration times, each from one barrier to the next.
const (
	callRefine = iota
	callCoarsen
	callPartition
	callBalance
	callGhost
	nCalls
)

var callNames = [nCalls]string{"refine", "coarsen", "partition", "balance", "ghost"}

// callSpans are the benchmark's span names for the timed calls.
var callSpans = [nCalls]string{"forest.Refine", "forest.Coarsen", "forest.Partition", "forest.Balance", "forest.BuildGhost"}

// bench holds one workload instance: its seeded input, the world, and the
// per-rank forests every iteration starts from.
type bench struct {
	spec  *spec
	in    input
	seed  int64
	k     int
	opt   forest.BalanceOptions
	w     *world
	start []*forest.Forest
	rec   *recorder // nil unless tracing
	run   string    // run id stamped on recorded spans
	sock  string
	// keepPre makes an AMR iteration keep a copy of its last step's
	// pre-balance forests, the input of the stand-alone subtree balance.
	keepPre bool
}

func newBench(s *spec, seed int64, sockDir string) *bench {
	in := s.build(seed)
	return &bench{
		spec: s, in: in, seed: seed, k: in.conn.Dim(), sock: sockDir,
		opt: forest.BalanceOptions{Workers: s.workers, Codec: forest.WireV1},
	}
}

func (b *bench) newWorld() (*world, error) {
	if b.spec.socket {
		return newSocketWorld(b.spec.ranks, b.sock)
	}
	return newInProcWorld(b.spec.ranks), nil
}

func (b *bench) newForest(c *comm.Comm) *forest.Forest {
	f := forest.NewUniform(b.in.conn, c, b.in.baseLevel)
	f.Wire = b.opt.Codec
	f.Workers = b.spec.workers
	return f
}

// preBalance is the part of a step before balance: the static workloads'
// setup refinement, or the AMR cycle's refine, coarsen and partition
// toward the front at the given step.
func (b *bench) preBalance(c *comm.Comm, f *forest.Forest, step int, t *iterTimes) {
	in := b.in
	if !b.spec.amr {
		b.timed(c, t, callRefine, func() { f.Refine(c, in.maxLevel, in.refine) })
		b.timed(c, t, callPartition, func() { f.Partition(c, nil) })
		return
	}
	b.timed(c, t, callRefine, func() {
		f.Refine(c, in.maxLevel, func(tree int32, o octant.Octant) bool {
			return in.front.near(in.conn, tree, o, step)
		})
	})
	if step > 0 {
		b.timed(c, t, callCoarsen, func() {
			f.Coarsen(c, func(tree int32, fam []octant.Octant) bool {
				for _, o := range fam {
					if int(o.Level) <= in.baseLevel || in.front.near(in.conn, tree, o, step) {
						return false
					}
				}
				return true
			})
		})
	}
	b.timed(c, t, callPartition, func() { f.Partition(c, nil) })
}

// iterTimes collects one iteration's measurements.  Rank 0 owns wall and
// alloc; every rank owns its own busy, phase and timestamp slots.
type iterTimes struct {
	wall   [nCalls]time.Duration
	busy   [][nCalls]time.Duration
	phases []forest.PhaseTimes
	alloc  uint64
	t0, t1 []time.Time // per rank: the current call's start and return
}

func newIterTimes(ranks int) *iterTimes {
	return &iterTimes{
		busy: make([][nCalls]time.Duration, ranks), phases: make([]forest.PhaseTimes, ranks),
		t0: make([]time.Time, ranks), t1: make([]time.Time, ranks),
	}
}

// timed runs one public call between barriers.  Its wall time runs from
// the first rank leaving the opening barrier to the last rank returning:
// with more ranks than CPUs, rank 0 may leave a barrier long after the
// others have started, so no single rank's clock spans the call.  Each
// rank's own call time is its busy time.  The heap-allocation count is
// read while every other rank waits in a barrier, so it covers the call
// and nothing else.  The call's traffic is labelled with its name unless
// the call labels its own phases.
func (b *bench) timed(c *comm.Comm, t *iterTimes, call int, fn func()) {
	r := c.Rank()
	c.SetPhase(syncPhase)
	var a0 uint64
	if r == 0 && t != nil {
		a0 = heapAllocBytes()
	}
	c.Barrier()
	sp := b.rec.begin(r, callSpans[call], "forest", b.run)
	t0 := time.Now()
	c.SetPhase(callNames[call])
	fn()
	t1 := time.Now()
	b.rec.end(sp)
	c.SetPhase(syncPhase)
	if t == nil {
		c.Barrier()
		return
	}
	t.t0[r], t.t1[r] = t0, t1
	t.busy[r][call] += t1.Sub(t0)
	c.Barrier()
	if r == 0 {
		t.alloc += heapAllocBytes() - a0
		first, last := t.t0[0], t.t1[0]
		for i := range t.t0 {
			if t.t0[i].Before(first) {
				first = t.t0[i]
			}
			if t.t1[i].After(last) {
				last = t.t1[i]
			}
		}
		t.wall[call] += last.Sub(first)
	}
	c.Barrier() // hold the other ranks until rank 0 has read the counters
}

// setup builds the world and the forest every iteration starts from: the
// refined, partitioned, unbalanced forest of a static workload, or the
// balanced initial mesh of an AMR workload.  It returns the set-up time,
// the world rendezvous included, and adds its calls' times to t if t is
// not nil.
func (b *bench) setup(t *iterTimes) (time.Duration, error) {
	start := time.Now()
	w, err := b.newWorld()
	if err != nil {
		return 0, err
	}
	forests := make([]*forest.Forest, b.spec.ranks)
	err = w.run(func(c *comm.Comm) {
		f := b.newForest(c)
		b.preBalance(c, f, 0, t)
		if b.spec.amr {
			b.timed(c, t, callBalance, func() { f.Balance(c, b.k, b.opt) })
		}
		forests[c.Rank()] = f
	})
	elapsed := time.Since(start)
	if err != nil {
		w.close()
		return 0, fmt.Errorf("setup: %w", err)
	}
	if b.w != nil {
		b.w.close()
	}
	b.w, b.start = w, forests
	return elapsed, nil
}

// clone copies a forest's leaves and partition so an iteration can mutate
// it while the start state stays intact.
func clone(f *forest.Forest) *forest.Forest {
	g := &forest.Forest{
		Conn: f.Conn, NumGlobal: f.NumGlobal, Wire: f.Wire, Workers: f.Workers,
		GFP: append([]forest.Pos(nil), f.GFP...),
	}
	g.Local = make([]forest.TreeChunk, len(f.Local))
	for i, tc := range f.Local {
		g.Local[i] = forest.TreeChunk{Tree: tc.Tree, Leaves: append([]octant.Key(nil), tc.Leaves...)}
	}
	return g
}

// iteration is one measured unit of work and its checks.
type iteration struct {
	times    *iterTimes
	octs     int64        // sum over steps of the global octant count after balance
	ghosts   int64        // ghost octants over all ranks after the last step
	got      []goldenStep // checksum and octant count after each balance
	err      error        // a Validate error or a rank panic
	panicked bool         // a rank panicked: the world is unusable
	final    []*forest.Forest
	pre      []*forest.Forest // see bench.keepPre
	gcCycles uint32
	gcPause  time.Duration
}

// iterate runs one iteration from the start state: balance and ghost on a
// static workload, the whole cycle on an AMR workload.  After every
// balance, outside the timed calls, it records the checksum and octant
// count for the oracle comparison (see check) and validates every rank's
// forest.
func (b *bench) iterate() *iteration {
	P := b.spec.ranks
	forests := make([]*forest.Forest, P)
	for r := range forests {
		forests[r] = clone(b.start[r])
	}
	it := &iteration{times: newIterTimes(P), final: forests, pre: make([]*forest.Forest, P)}
	runtime.GC()
	gc0 := readGC()
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		if it.err == nil {
			it.err = err
		}
		mu.Unlock()
	}
	ghosts := make([]int64, P)
	steps := 1
	if b.spec.amr {
		steps = b.in.steps
	}
	err := b.w.run(func(c *comm.Comm) {
		r := c.Rank()
		f := forests[r]
		for s := 1; s <= steps; s++ {
			if b.spec.amr {
				b.preBalance(c, f, s, it.times)
			}
			if b.keepPre && b.spec.amr && s == steps {
				it.pre[r] = clone(f)
			}
			var pt forest.PhaseTimes
			b.timed(c, it.times, callBalance, func() { pt = f.Balance(c, b.k, b.opt) })
			addPhases(&it.times.phases[r], pt)
			var g *forest.GhostLayer
			b.timed(c, it.times, callGhost, func() { g = f.BuildGhost(c) })
			ghosts[r] = int64(g.NumGhosts())
			c.SetPhase(syncPhase)
			sum := f.Checksum(c)
			if err := f.Validate(); err != nil {
				fail(fmt.Errorf("step %d rank %d: %w", s, r, err))
			}
			if r == 0 {
				it.octs += f.NumGlobal
				it.got = append(it.got, goldenStep{Checksum: sum, Octants: f.NumGlobal})
			}
		}
	})
	gc1 := readGC()
	it.gcCycles, it.gcPause = gc1.cycles-gc0.cycles, gc1.pause-gc0.pause
	if err != nil {
		it.panicked = true
		fail(fmt.Errorf("rank panic: %w", err))
	}
	for _, n := range ghosts {
		it.ghosts += n
	}
	return it
}

// check compares an iteration with the oracle.  Entry 0 of an AMR
// workload's golden values is the set-up balance, so step s is entry s; a
// static workload has the single entry 0.
func (b *bench) check(it *iteration, golden []goldenStep) error {
	if it.err != nil {
		return it.err
	}
	want := golden
	if b.spec.amr {
		want = golden[1:]
	}
	if len(it.got) != len(want) {
		return fmt.Errorf("%d balanced forests recorded, oracle has %d", len(it.got), len(want))
	}
	for s, got := range it.got {
		if err := expectStep(fmt.Sprintf("step %d", s+1), got, want[s]); err != nil {
			return err
		}
	}
	return nil
}

func addPhases(dst *forest.PhaseTimes, pt forest.PhaseTimes) {
	dst.LocalBalance += pt.LocalBalance
	dst.Notify += pt.Notify
	dst.QueryResponse += pt.QueryResponse
	dst.Rebalance += pt.Rebalance
}

// attachTracer attaches a fresh program tracer that shares the benchmark
// recorder's clock, so program spans nest inside the benchmark's spans on
// one timeline.
func (b *bench) attachTracer() *obs.Tracer {
	tr := obs.NewTracer(b.spec.ranks)
	tr.SetClock(b.rec.clock)
	b.w.setTracer(tr)
	return tr
}

func (b *bench) detachTracer() { b.w.setTracer(nil) }
