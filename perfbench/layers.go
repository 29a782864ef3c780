package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/forest"
	"repro/internal/linear"
	"repro/internal/mesh"
	"repro/internal/notify"
	"repro/internal/octant"
	"repro/internal/traverse"
)

// Layer entry points called alone on the workload's own forests, after the
// traced iterations.  Each returns per-layer metrics by name; any wrong
// output is returned as an error and counts as a failed attempt.

const layerRun = "layers"

// layerReps is how often each serial layer call repeats; the median is
// reported.
const layerReps = 3

func medianDuration(reps int, fn func() time.Duration) time.Duration {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = float64(fn())
	}
	return time.Duration(median(xs))
}

func allChunks(forests []*forest.Forest) []forest.TreeChunk {
	var out []forest.TreeChunk
	for _, f := range forests {
		out = append(out, f.Local...)
	}
	return out
}

func countKeys(chunks []forest.TreeChunk) int {
	n := 0
	for _, tc := range chunks {
		n += len(tc.Leaves)
	}
	return n
}

// wireLayer encodes and decodes every balanced chunk with the V1 key-list
// codec the balance payloads use, and checks the round trip.
func (b *bench) wireLayer(m metricSet, final []*forest.Forest) error {
	chunks := allChunks(final)
	n := countKeys(chunks)
	bufs := make([][]byte, len(chunks))
	sp := b.rec.begin(0, "forest.EncodeKeyList", "forest", layerRun)
	enc := medianDuration(layerReps, func() time.Duration {
		t0 := time.Now()
		for i, tc := range chunks {
			bufs[i] = forest.EncodeKeyList(bufs[i][:0], tc.Leaves, forest.WireV1)
		}
		return time.Since(t0)
	})
	b.rec.end(sp)
	var bytes int
	for _, buf := range bufs {
		bytes += len(buf)
	}
	var decErr error
	sp = b.rec.begin(0, "forest.DecodeKeyList", "forest", layerRun)
	dec := medianDuration(layerReps, func() time.Duration {
		t0 := time.Now()
		for i, tc := range chunks {
			keys, _, err := forest.DecodeKeyList(bufs[i], forest.WireV1)
			if err == nil && !slices.Equal(keys, tc.Leaves) {
				err = fmt.Errorf("tree %d: round trip changed the keys", tc.Tree)
			}
			if err != nil && decErr == nil {
				decErr = fmt.Errorf("wire layer: %w", err)
			}
		}
		return time.Since(t0)
	})
	b.rec.end(sp)
	m["forest.wire.encode_ns_per_oct"] = float64(enc.Nanoseconds()) / float64(n)
	m["forest.wire.decode_ns_per_oct"] = float64(dec.Nanoseconds()) / float64(n)
	m["forest.wire.bytes_per_oct"] = float64(bytes) / float64(n)
	return decErr
}

// subtreeLayer runs the local subtree balance serially on a copy of the
// pre-balance chunks.
func (b *bench) subtreeLayer(m metricSet, pre []*forest.Forest) {
	chunks := allChunks(pre)
	sp := b.rec.begin(0, "forest.BalanceChunksKeys", "balance", layerRun)
	d := medianDuration(layerReps, func() time.Duration {
		keys := make([][]octant.Key, len(chunks))
		for i, tc := range chunks {
			keys[i] = slices.Clone(tc.Leaves)
		}
		t0 := time.Now()
		forest.BalanceChunksKeys(keys, b.k, 0)
		return time.Since(t0)
	})
	b.rec.end(sp)
	m["balance.subtree_s"] = d.Seconds()
}

// sortLayer sorts a seeded shuffle of every balanced chunk and checks the
// result against the chunk.  Bytes moved per key are computed, not
// measured: the radix sort reads each key once to count and reads and
// writes it once to permute (48 bytes) on every byte plane from the
// chunk's first differing plane down to the plane that separates the key
// from its neighbours.
func (b *bench) sortLayer(m metricSet, final []*forest.Forest) error {
	chunks := allChunks(final)
	n := countKeys(chunks)
	rng := rand.New(rand.NewSource(b.seed))
	shuffled := make([][]octant.Key, len(chunks))
	var sortErr error
	sp := b.rec.begin(0, "linear.SortKeys", "linear", layerRun)
	d := medianDuration(layerReps, func() time.Duration {
		for i, tc := range chunks {
			shuffled[i] = append(shuffled[i][:0], tc.Leaves...)
			rng.Shuffle(len(shuffled[i]), func(a, c int) { shuffled[i][a], shuffled[i][c] = shuffled[i][c], shuffled[i][a] })
		}
		t0 := time.Now()
		for _, keys := range shuffled {
			linear.SortKeys(keys)
		}
		el := time.Since(t0)
		for i, tc := range chunks {
			if !slices.Equal(shuffled[i], tc.Leaves) && sortErr == nil {
				sortErr = fmt.Errorf("sort layer: tree %d sorted differently from the forest", tc.Tree)
			}
		}
		return el
	})
	b.rec.end(sp)
	var planes float64
	for _, tc := range chunks {
		planes += radixPlanes(tc.Leaves)
	}
	m["linear.sort_keys_ns_per_key"] = float64(d.Nanoseconds()) / float64(n)
	m["linear.sort_keys_bytes_per_key_computed"] = 48 * planes / float64(n)
	return sortErr
}

// radixPlanes sums, over sorted keys, the number of byte planes the MSD
// radix sort visits for each key.
func radixPlanes(keys []octant.Key) float64 {
	if len(keys) < 2 {
		return 0
	}
	lcp := func(a, c octant.Key) int { // common leading bytes
		if x := a.Hi ^ c.Hi; x != 0 {
			return bits.LeadingZeros64(x) / 8
		}
		return 8 + bits.LeadingZeros64(a.Lo^c.Lo)/8
	}
	first := lcp(keys[0], keys[len(keys)-1])
	var sum float64
	for i := range keys {
		deep := 0
		if i > 0 {
			deep = lcp(keys[i-1], keys[i])
		}
		if i+1 < len(keys) {
			deep = max(deep, lcp(keys[i], keys[i+1]))
		}
		sum += float64(deep - first + 1)
	}
	return sum
}

var neighborSink octant.Key

// neighborLayer calls Key.Neighbor for every balanced leaf in every
// direction of full corner balance.
func (b *bench) neighborLayer(m metricSet, final []*forest.Forest) {
	chunks := allChunks(final)
	dirs := octant.Directions(b.in.conn.Dim(), b.in.conn.Dim())
	calls := countKeys(chunks) * len(dirs)
	sp := b.rec.begin(0, "octant.Key.Neighbor", "octant", layerRun)
	d := medianDuration(layerReps, func() time.Duration {
		var acc octant.Key
		t0 := time.Now()
		for _, tc := range chunks {
			for _, k := range tc.Leaves {
				for _, dir := range dirs {
					n := k.Neighbor(dir)
					acc.Hi ^= n.Hi
					acc.Lo ^= n.Lo
				}
			}
		}
		el := time.Since(t0)
		neighborSink = acc
		return el
	})
	b.rec.end(sp)
	m["octant.key_neighbor_ns"] = float64(d.Nanoseconds()) / float64(calls)
}

// ghostScanLayer runs every rank's ghost send-schedule traversal.
func (b *bench) ghostScanLayer(m metricSet, final []*forest.Forest) {
	var st traverse.Stats
	var local int64
	sp := b.rec.begin(0, "forest.GhostScan", "traverse", layerRun)
	d := medianDuration(layerReps, func() time.Duration {
		st, local = traverse.Stats{}, 0
		t0 := time.Now()
		for r, f := range final {
			_, s := f.GhostScan(r)
			st.Merge(s)
			local += f.NumLocal()
		}
		return time.Since(t0)
	})
	b.rec.end(sp)
	m["traverse.ghost_scan_s"] = d.Seconds()
	m["traverse.nodes"] = float64(st.Nodes)
	m["traverse.leaves"] = float64(st.Leaves)
	// The share of local leaves the scan never reached.
	m["traverse.pruned_frac"] = 1 - float64(st.Leaves)/float64(local)
}

// notifyPhase labels the stand-alone notify call's traffic.
const notifyPhase = "notify-alone"

// collectiveLayers runs, on the workload's world, the pattern reversal
// alone on the ghost-owner pattern, and on the 2D AMR workloads the
// distributed node numbering, which on the 3D fractal alone would take
// longer than a whole run.  The reversal is checked against the pattern
// it reverses.
func (b *bench) collectiveLayers(m metricSet, final []*forest.Forest) error {
	P := b.spec.ranks
	receivers := make([][]int, P)
	senders := make([][]int, P)
	notifyBusy := make([]time.Duration, P)
	meshT0, meshT1 := make([]time.Time, P), make([]time.Time, P)
	var nodes int64
	hanging := make([]int, P)
	meshErrs := make([]error, P)
	before := b.w.phaseStats()[notifyPhase]
	err := b.w.run(func(c *comm.Comm) {
		r := c.Rank()
		f := final[r]
		c.SetPhase(syncPhase)
		g := f.BuildGhost(c)
		for owner := range g.ByOwner() {
			receivers[r] = append(receivers[r], owner)
		}
		slices.Sort(receivers[r])
		c.SetPhase(syncPhase)
		c.Barrier()
		sp := b.rec.begin(r, "notify.NotifyCodec", "notify", layerRun)
		t0 := time.Now()
		c.SetPhase(notifyPhase)
		senders[r] = notify.NotifyCodec(c, receivers[r], forest.WireV1)
		notifyBusy[r] = time.Since(t0)
		b.rec.end(sp)
		c.SetPhase(syncPhase)
		c.Barrier()
		if !b.spec.amr {
			return
		}
		sp = b.rec.begin(r, "mesh.BuildNodesDistributed", "mesh", layerRun)
		meshT0[r] = time.Now()
		nd, err := mesh.BuildNodesDistributed(f, c, g)
		meshT1[r] = time.Now()
		b.rec.end(sp)
		c.SetPhase(syncPhase)
		c.Barrier()
		if err != nil {
			meshErrs[r] = err
			return
		}
		hanging[r] = len(nd.Hangings)
		if r == 0 {
			nodes = nd.NumGlobal
		}
	})
	if err != nil {
		return fmt.Errorf("layer calls: %w", err)
	}
	for _, e := range meshErrs {
		if e != nil {
			return fmt.Errorf("mesh layer: %w", e)
		}
	}
	for r := range senders {
		var want []int
		for s := range receivers {
			if slices.Contains(receivers[s], r) {
				want = append(want, s)
			}
		}
		got := slices.Clone(senders[r])
		slices.Sort(got)
		if !slices.Equal(got, want) {
			return fmt.Errorf("notify layer: rank %d senders %v, pattern says %v", r, got, want)
		}
	}
	var busy, hang float64
	for r := range notifyBusy {
		busy += notifyBusy[r].Seconds()
		hang += float64(hanging[r])
	}
	after := b.w.phaseStats()[notifyPhase]
	m["notify.busy_s"] = busy / float64(P)
	m["notify.msgs"] = float64(after.Messages - before.Messages)
	// Wall time from the first rank starting to the last one finishing, as
	// for the timed calls.
	var meshWall time.Duration
	if b.spec.amr {
		meshWall = slices.MaxFunc(meshT1, time.Time.Compare).Sub(slices.MinFunc(meshT0, time.Time.Compare))
	}
	m["mesh.nodes_s"] = meshWall.Seconds()
	m["mesh.nodes"] = float64(nodes)
	m["mesh.hanging"] = hang
	return nil
}
