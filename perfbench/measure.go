package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/forest"
	"repro/internal/octant"
)

// A run builds its workload at least setupReps times and for at least
// setupMin; setup_s is the median.
const (
	setupReps = 9
	setupMin  = time.Second
)

// socketReps is how many AMR cycles the socket-transport layer call runs.
const socketReps = 5

// balanceLabels are the phase labels Balance meters its traffic under
// ("default" carries its closing octant-count reduction).
var balanceLabels = []string{"local-balance", "query", "notify", "query-response", "rebalance", "default"}

// commLabels are the labels reported one by one as comm.msgs.<label> and
// comm.bytes.<label>: the balance phases that send, and the benchmark's
// labels around the other timed calls.
var commLabels = []string{"notify", "query-response", "default", "refine", "coarsen", "partition", "ghost"}

// sample is one iteration with the traffic it caused.
type sample struct {
	it         *iteration
	comm       map[string]comm.Stats // per-label deltas
	net        comm.NetStats
	sockBytes  int64
	traceQuery time.Duration // traced only: max over ranks of the query spans
}

func (s *sample) wall(call int) time.Duration { return s.it.times.wall[call] }

func (s *sample) cycleWall() time.Duration {
	var d time.Duration
	for _, w := range s.it.times.wall {
		d += w
	}
	return d
}

// perMoctsRank converts a time into the paper's unit: seconds per million
// octants per rank, the octants summed over the iteration's steps.
func (b *bench) perMoctsRank(d time.Duration, s *sample) float64 {
	return d.Seconds() / (float64(s.it.octs) / float64(b.spec.ranks) / 1e6)
}

// sampleOnce runs one iteration, queues its check, and records its
// traffic.  A rank panic leaves the world unusable, so the workload is set
// up again.
func (b *bench) sampleOnce(r *result) (*sample, error) {
	c0, n0, k0 := b.w.phaseStats(), b.w.netStats(), b.w.socketBytes()
	it := b.iterate()
	r.expect(func(golden []goldenStep) error { return b.check(it, golden) })
	s := &sample{it: it, comm: map[string]comm.Stats{}}
	for label, st := range b.w.phaseStats() {
		prev := c0[label]
		s.comm[label] = comm.Stats{
			Messages: st.Messages - prev.Messages, Bytes: st.Bytes - prev.Bytes, RawBytes: st.RawBytes - prev.RawBytes,
		}
	}
	n1 := b.w.netStats()
	s.net = comm.NetStats{
		DataPackets: n1.DataPackets - n0.DataPackets, Retries: n1.Retries - n0.Retries,
		DupsDropped: n1.DupsDropped - n0.DupsDropped, BackpressureStalls: n1.BackpressureStalls - n0.BackpressureStalls,
	}
	s.sockBytes = b.w.socketBytes() - k0
	if it.panicked {
		if _, err := b.setup(nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// loop runs iterations for at least d (and at least three).  With traced
// set, each iteration gets a fresh program tracer; its merged timeline
// feeds the self-time table, and the last one is returned for export.
func (b *bench) loop(r *result, d time.Duration, traced bool, st selfTimes) ([]*sample, []spanRec, error) {
	var out []*sample
	var last []spanRec
	start := time.Now()
	for i := 0; time.Since(start) < d || len(out) < 3; i++ {
		// Only the newest iteration's forests are kept: the layer calls run
		// on them after the traced loop.
		if len(out) > 0 {
			out[len(out)-1].it.final, out[len(out)-1].it.pre = nil, nil
		}
		if !traced {
			s, err := b.sampleOnce(r)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, s)
			continue
		}
		b.run = fmt.Sprintf("iter-%d", i)
		tr := b.attachTracer()
		b.keepPre = true
		s, err := b.sampleOnce(r)
		b.keepPre = false
		b.detachTracer()
		if err != nil {
			return nil, nil, err
		}
		last = b.rec.timeline(b.run, tr)
		st.add(last)
		s.traceQuery = queryMax(last, b.spec.ranks)
		out = append(out, s)
	}
	return out, last, nil
}

// queryMax is the longest per-rank total of the program's "query" spans:
// query construction, which PhaseTimes folds into query-response.
func queryMax(spans []spanRec, ranks int) time.Duration {
	per := make([]time.Duration, ranks)
	for _, s := range spans {
		if s.Source == "program" && s.Name == "query" {
			per[s.Rank] += s.End - s.Start
		}
	}
	var m time.Duration
	for _, d := range per {
		m = max(m, d)
	}
	return m
}

func medianOf(samples []*sample, f func(*sample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return median(xs)
}

// measure runs one workload instance: set-up, warm-up and the untraced
// loop, which give the end-to-end metrics, with traced set the per-layer
// runs, and last the oracle comparison of every balanced forest.
func measure(b *bench, r *result, d time.Duration, traced bool) error {
	if err := b.runAll(r, d, traced); err != nil {
		return err
	}
	golden, oracleTime, err := b.loadGolden(filepath.Join(buildDir, "golden"))
	if err != nil {
		return fmt.Errorf("%s seed %d: oracle: %w", b.spec.name, b.seed, err)
	}
	if oracleTime > 0 {
		fmt.Printf("oracle: derived %d golden value(s) in %.1f s (RefBalance + CheckForest, not timed)\n", len(golden), oracleTime.Seconds())
	}
	r.settle(golden)
	return nil
}

// runAll is every timed part of measure; it queues the oracle checks.
func (b *bench) runAll(r *result, d time.Duration, traced bool) error {
	var setups []float64
	setupTimes := newIterTimes(b.spec.ranks)
	for start := time.Now(); len(setups) < setupReps || time.Since(start) < setupMin; {
		runtime.GC()
		el, err := b.setup(setupTimes)
		if err != nil {
			return err
		}
		setups = append(setups, el.Seconds())
	}
	defer func() { b.w.close() }()
	if b.spec.amr {
		if err := b.checkStart(r); err != nil {
			return err
		}
	}
	if _, err := b.sampleOnce(r); err != nil { // warm-up, checked but not timed
		return err
	}
	untraced, _, err := b.loop(r, d, false, nil)
	if err != nil {
		return err
	}

	m := r.metrics
	balance := func(s *sample) float64 { return b.perMoctsRank(s.wall(callBalance), s) }
	cycle := func(s *sample) float64 { return b.perMoctsRank(s.cycleWall(), s) }
	allocMB := func(s *sample) float64 { return float64(s.it.times.alloc) / (1 << 20) }
	series := func(f func(*sample) float64) []float64 {
		xs := make([]float64, len(untraced))
		for i, s := range untraced {
			xs[i] = f(s)
		}
		return xs
	}
	m["balance_s_per_mocts_rank"] = median(series(balance))
	m["cycle_s_per_mocts_rank"] = median(series(cycle))
	m["setup_s"] = median(setups)
	m["alloc_mb"] = median(series(allocMB))
	fmt.Printf("workload %s seed %d: %d ranks, %d workers, %d octants per iteration (summed over steps)\n",
		b.spec.name, b.seed, b.spec.ranks, b.spec.workers, untraced[0].it.octs)
	fmt.Printf("  balance_s_per_mocts_rank: %s\n", describe(series(balance), "s"))
	fmt.Printf("  cycle_s_per_mocts_rank:   %s\n", describe(series(cycle), "s"))
	fmt.Printf("  setup_s:                  %s\n", describe(setups, "s"))
	fmt.Printf("  alloc_mb:                 %s\n", describe(series(allocMB), "MiB"))
	if err := b.writeSamples(traced, map[string][]float64{
		"balance_s_per_mocts_rank": series(balance), "cycle_s_per_mocts_rank": series(cycle),
		"setup_s": setups, "alloc_mb": series(allocMB),
	}); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	return b.perLayer(r, d, untraced, setupTimes, len(setups))
}

// perLayer derives the per-layer metrics: traffic and runtime counts from
// the untraced iterations, phase and call times from a traced loop of the
// same length, then the layer entry points called alone on the forests of
// the last traced iteration.
func (b *bench) perLayer(r *result, d time.Duration, untraced []*sample, setupTimes *iterTimes, setups int) error {
	m := r.metrics
	cycle := func(s *sample) float64 { return b.perMoctsRank(s.cycleWall(), s) }
	b.commMetrics(m, untraced)
	m["runtime.gc_cycles"] = medianOf(untraced, func(s *sample) float64 { return float64(s.it.gcCycles) })
	m["runtime.gc_pause_s"] = medianOf(untraced, func(s *sample) float64 { return s.it.gcPause.Seconds() })
	if !b.spec.amr {
		m["forest.refine_s"] = setupTimes.wall[callRefine].Seconds() / float64(setups)
		m["forest.partition_s"] = setupTimes.wall[callPartition].Seconds() / float64(setups)
	}

	b.rec = newRecorder()
	st := selfTimes{}
	tracedSamples, lastSpans, err := b.loop(r, d, true, st)
	if err != nil {
		return err
	}
	b.tracedMetrics(m, tracedSamples)
	m["obs.trace_overhead_frac"] = medianOf(tracedSamples, cycle)/medianOf(untraced, cycle) - 1

	final := tracedSamples[len(tracedSamples)-1].it
	pre := b.start
	if b.spec.amr {
		pre = final.pre
	}
	if b.spec.workers > 1 {
		el, err := b.serialBalance(r)
		if err != nil {
			return err
		}
		m["forest.balance.serial_s"] = el.Seconds()
	} else {
		m["forest.balance.serial_s"] = medianOf(tracedSamples, func(s *sample) float64 { return s.wall(callBalance).Seconds() })
	}
	b.run = layerRun
	tr := b.attachTracer()
	r.count(b.wireLayer(m, final.final))
	b.subtreeLayer(m, pre)
	r.count(b.sortLayer(m, final.final))
	b.neighborLayer(m, final.final)
	b.ghostScanLayer(m, final.final)
	if !b.spec.amr {
		el, err := b.coarsenScan(final.final)
		r.count(err)
		m["forest.coarsen_s"] = el.Seconds()
	}
	r.count(b.collectiveLayers(m, final.final))
	b.detachTracer()
	layerSpans := b.rec.timeline(layerRun, tr)
	st.add(layerSpans)
	if b.spec.amr {
		if err := b.socketLayer(r, m, medianOf(untraced, cycle)); err != nil {
			return err
		}
	} else {
		b.transportMetrics(m, untraced)
		m["netcomm.rendezvous_s"] = 0
		m["netcomm.cycle_overhead_frac"] = 0
	}
	m["runtime.peak_rss_mb"] = peakRSSMB()
	if err := b.writeTrace(st, lastSpans, layerSpans); err != nil {
		return err
	}
	fmt.Printf("busy vs wait, per iteration (traced):\n"+
		"  forest.Balance: busy %.4g s (mean per-rank call time), wait %.4g s (wall minus busy)\n"+
		"  notify inside Balance %.4g s (max over ranks, waiting included), notify.NotifyCodec alone after a barrier %.4g s\n",
		m["forest.balance.busy_s"], m["forest.balance.wait_s"], m["forest.balance.notify_s"], m["notify.busy_s"])
	fmt.Println("per-layer metrics:")
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Printf("  %-42s %.6g\n", name, m[name])
	}
	return nil
}

// commMetrics derives the traffic metrics from the untraced iterations.
// Counts repeat exactly from one iteration to the next; the median only
// guards against a failed iteration.
func (b *bench) commMetrics(m metricSet, samples []*sample) {
	total := func(s *sample, bytes bool) float64 {
		var n int64
		for label, st := range s.comm {
			if label == syncPhase || (!b.spec.amr && !slices.Contains(balanceLabels, label)) {
				continue
			}
			if bytes {
				n += st.Bytes
			} else {
				n += st.Messages
			}
		}
		return float64(n)
	}
	m["comm.msgs"] = medianOf(samples, func(s *sample) float64 { return total(s, false) })
	m["comm.bytes"] = medianOf(samples, func(s *sample) float64 { return total(s, true) })
	for _, label := range commLabels {
		m["comm.msgs."+label] = medianOf(samples, func(s *sample) float64 { return float64(s.comm[label].Messages) })
		m["comm.bytes."+label] = medianOf(samples, func(s *sample) float64 { return float64(s.comm[label].Bytes) })
	}
	// Wire compression over the traffic whose producers meter the
	// codec-independent size.
	m["comm.codec_ratio"] = medianOf(samples, func(s *sample) float64 {
		var raw, enc int64
		for _, st := range s.comm {
			if st.RawBytes > 0 {
				raw += st.RawBytes
				enc += st.Bytes
			}
		}
		if enc == 0 {
			return 0
		}
		return float64(raw) / float64(enc)
	})
	var peak comm.Stats
	for label, st := range b.w.phaseStats() {
		if label != syncPhase {
			peak.Add(comm.Stats{MaxQueueDepth: st.MaxQueueDepth, PeakInFlightBytes: st.PeakInFlightBytes})
		}
	}
	m["comm.max_queue_depth"] = float64(peak.MaxQueueDepth)
	m["comm.peak_inflight_bytes"] = float64(peak.PeakInFlightBytes)
}

// transportMetrics derives the reliable-layer and socket metrics from
// iterations on one world.  On the in-process transport the reliable
// layer is bypassed: nothing is retried and no socket bytes move.
func (b *bench) transportMetrics(m metricSet, samples []*sample) {
	var data, retries int64
	for _, s := range samples {
		data += s.net.DataPackets
		retries += s.net.Retries
	}
	useful := 0.0
	if data > 0 {
		useful = float64(data-retries) / float64(data)
	}
	m["comm.reliable.retries"] = medianOf(samples, func(s *sample) float64 { return float64(s.net.Retries) })
	m["comm.reliable.dups_dropped"] = medianOf(samples, func(s *sample) float64 { return float64(s.net.DupsDropped) })
	m["comm.reliable.useful_frac"] = useful
	m["netcomm.wire_bytes"] = medianOf(samples, func(s *sample) float64 { return float64(s.sockBytes) })
	m["netcomm.data_packets"] = medianOf(samples, func(s *sample) float64 { return float64(s.net.DataPackets) })
	m["netcomm.backpressure_stalls"] = medianOf(samples, func(s *sample) float64 { return float64(s.net.BackpressureStalls) })
}

// tracedMetrics derives the per-phase and per-call metrics from the traced
// iterations.
func (b *bench) tracedMetrics(m metricSet, samples []*sample) {
	P := float64(b.spec.ranks)
	maxPhase := func(f func(forest.PhaseTimes) time.Duration) func(*sample) float64 {
		return func(s *sample) float64 {
			var mx time.Duration
			for _, pt := range s.it.times.phases {
				mx = max(mx, f(pt))
			}
			return mx.Seconds()
		}
	}
	busy := func(s *sample) float64 {
		var sum time.Duration
		for _, bz := range s.it.times.busy {
			sum += bz[callBalance]
		}
		return sum.Seconds() / P
	}
	m["forest.balance.local_s"] = medianOf(samples, maxPhase(func(p forest.PhaseTimes) time.Duration { return p.LocalBalance }))
	m["forest.balance.query_response_s"] = medianOf(samples, maxPhase(func(p forest.PhaseTimes) time.Duration { return p.QueryResponse }))
	m["forest.balance.rebalance_s"] = medianOf(samples, maxPhase(func(p forest.PhaseTimes) time.Duration { return p.Rebalance }))
	m["forest.balance.notify_s"] = medianOf(samples, maxPhase(func(p forest.PhaseTimes) time.Duration { return p.Notify }))
	m["forest.balance.query_s"] = medianOf(samples, func(s *sample) float64 { return s.traceQuery.Seconds() })
	m["forest.balance.busy_s"] = medianOf(samples, busy)
	m["forest.balance.wait_s"] = medianOf(samples, func(s *sample) float64 { return s.wall(callBalance).Seconds() - busy(s) })
	if b.spec.amr {
		m["forest.refine_s"] = medianOf(samples, func(s *sample) float64 { return s.wall(callRefine).Seconds() })
		m["forest.coarsen_s"] = medianOf(samples, func(s *sample) float64 { return s.wall(callCoarsen).Seconds() })
		m["forest.partition_s"] = medianOf(samples, func(s *sample) float64 { return s.wall(callPartition).Seconds() })
	}
	m["forest.ghost_s"] = medianOf(samples, func(s *sample) float64 { return s.wall(callGhost).Seconds() })
	m["forest.ghosts"] = medianOf(samples, func(s *sample) float64 { return float64(s.it.ghosts) })
}

// socketLayer runs the AMR cycle again with ranks [0, P/2) and [P/2, P) on
// two netcomm transports joined over a unix socket in this process, the
// way two cmd/octd processes split a world.  It measures the socket
// transport, the reliable seq/ack layer under it, and the cycle's cost
// relative to the in-process median inProc.  Its iterations are checked
// against the same golden values.
func (b *bench) socketLayer(r *result, m metricSet, inProc float64) error {
	spec := *b.spec
	spec.socket = true
	sb := *b
	sb.spec, sb.w, sb.rec = &spec, nil, nil
	var rendezvous []float64
	var samples []*sample
	defer func() {
		if sb.w != nil {
			sb.w.close()
		}
	}()
	for i := 0; i < socketReps; i++ {
		runtime.GC()
		if _, err := sb.setup(nil); err != nil {
			return fmt.Errorf("socket layer: %w", err)
		}
		rendezvous = append(rendezvous, sb.w.rendezvous.Seconds())
		s, err := sb.sampleOnce(r)
		if err != nil {
			return fmt.Errorf("socket layer: %w", err)
		}
		s.it.final = nil
		samples = append(samples, s)
	}
	cycle := medianOf(samples, func(s *sample) float64 { return sb.perMoctsRank(s.cycleWall(), s) })
	m["netcomm.rendezvous_s"] = median(rendezvous)
	m["netcomm.cycle_overhead_frac"] = cycle/inProc - 1
	sb.transportMetrics(m, samples)
	return nil
}

// checkStart queues the comparison of an AMR workload's set-up forest with
// golden entry 0.
func (b *bench) checkStart(r *result) error {
	var got goldenStep
	err := b.w.run(func(c *comm.Comm) {
		c.SetPhase(syncPhase)
		sum := b.start[c.Rank()].Checksum(c)
		if c.Rank() == 0 {
			got = goldenStep{Checksum: sum, Octants: b.start[0].NumGlobal}
		}
	})
	r.expect(func(golden []goldenStep) error { return expectStep("set-up balance", got, golden[0]) })
	return err
}

func expectStep(what string, got, want goldenStep) error {
	if got != want {
		return fmt.Errorf("%s: checksum %016x octants %d, oracle %016x octants %d",
			what, got.Checksum, got.Octants, want.Checksum, want.Octants)
	}
	return nil
}

// serialBalance balances a copy of the start forest with the worker pool
// off, the single-thread baseline, and queues the result's check.
func (b *bench) serialBalance(r *result) (time.Duration, error) {
	opt := b.opt
	opt.Workers = 0
	forests := make([]*forest.Forest, b.spec.ranks)
	for r := range forests {
		forests[r] = clone(b.start[r])
	}
	runtime.GC()
	t := newIterTimes(b.spec.ranks)
	var got goldenStep
	err := b.w.run(func(c *comm.Comm) {
		f := forests[c.Rank()]
		b.timed(c, t, callBalance, func() { f.Balance(c, b.k, opt) })
		c.SetPhase(syncPhase)
		sum := f.Checksum(c)
		if c.Rank() == 0 {
			got = goldenStep{Checksum: sum, Octants: f.NumGlobal}
		}
	})
	r.expect(func(golden []goldenStep) error { return expectStep("serial balance", got, golden[0]) })
	return t.wall[callBalance], err
}

// coarsenScan runs Coarsen with a rule that approves no family, on a
// static workload whose cycle never coarsens: the family-detection scan
// alone.  The forest must come out unchanged.
func (b *bench) coarsenScan(final []*forest.Forest) (time.Duration, error) {
	t := newIterTimes(b.spec.ranks)
	before := make([]int64, len(final))
	for r, f := range final {
		before[r] = f.NumLocal()
	}
	err := b.w.run(func(c *comm.Comm) {
		b.timed(c, t, callCoarsen, func() {
			final[c.Rank()].Coarsen(c, func(int32, []octant.Octant) bool { return false })
		})
	})
	for r, f := range final {
		if err == nil && f.NumLocal() != before[r] {
			err = fmt.Errorf("coarsen scan changed rank %d", r)
		}
	}
	return t.wall[callCoarsen], err
}

// writeSamples keeps every end-to-end sample of the run for re-analysis.
func (b *bench) writeSamples(traced bool, series map[string][]float64) error {
	dir := filepath.Join(buildDir, "samples")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(series)
	if err != nil {
		return err
	}
	trace := 0
	if traced {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-s%d-trace%d.json", b.spec.name, b.seed, trace)), data, 0o644)
}

// writeTrace writes the last traced iteration and the layer calls as one
// Perfetto timeline, and the self-time table over all traced iterations.
func (b *bench) writeTrace(st selfTimes, iter, layers []spanRec) error {
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := append([]spanRec(nil), iter...)
	for _, s := range layers {
		if s.Parent >= 0 {
			s.Parent += len(iter)
		}
		spans = append(spans, s)
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-s%d", b.spec.name, b.seed))
	if err := writePerfetto(stem+".perfetto.json", spans, b.spec.ranks); err != nil {
		return err
	}
	f, err := os.Create(stem + ".selftime.txt")
	if err != nil {
		return err
	}
	title := fmt.Sprintf("self time per layer, %s seed %d, all traced iterations and layer calls, all ranks", b.spec.name, b.seed)
	if err := st.write(f, title); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %s.perfetto.json, self-time table: %s.selftime.txt\n", stem, stem)
	return st.write(os.Stdout, title)
}
