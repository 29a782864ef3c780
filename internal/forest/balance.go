package forest

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"repro/internal/balance"
	"repro/internal/comm"
	"repro/internal/linear"
	"repro/internal/notify"
	"repro/internal/obs"
	"repro/internal/octant"
	"repro/internal/traverse"
)

// Algo selects the one-pass balance variant.
type Algo int

const (
	// AlgoNew is the paper's algorithm: seed octants in responses and
	// per-query-octant reconstruction in the rebalance.  It is the zero
	// value, so BalanceOptions{} selects it.
	AlgoNew Algo = iota
	// AlgoOld is the pre-paper algorithm: raw octants in responses and
	// full-partition rebalancing with auxiliary octants.
	AlgoOld
)

func (a Algo) String() string {
	if a == AlgoOld {
		return "old"
	}
	return "new"
}

// NotifyScheme selects the pattern-reversal algorithm of Section V.
type NotifyScheme int

const (
	// NotifyNaive is the Allgather/Allgatherv scheme of Figure 12.
	NotifyNaive NotifyScheme = iota
	// NotifyRanges encodes receivers in bounded rank ranges.
	NotifyRanges
	// NotifyDC is the divide-and-conquer Notify algorithm of Figure 13.
	NotifyDC
)

func (s NotifyScheme) String() string {
	switch s {
	case NotifyNaive:
		return "naive"
	case NotifyRanges:
		return "ranges"
	}
	return "notify"
}

// BalanceOptions configures a Balance call.  The zero value selects the
// paper's new algorithm with the divide-and-conquer Notify.
type BalanceOptions struct {
	Algo   Algo
	Notify NotifyScheme
	// MaxRanges bounds the range count for NotifyRanges (default 8).
	MaxRanges int
	// Workers bounds the rank-local worker pool that the local pipeline
	// stages (per-tree subtree balance, query responses, the rebalance
	// subtree reconstruction and merge) fan out over.  0 and 1 run
	// serially on the rank's own goroutine; n > 1 uses a pool of n
	// goroutines; a negative value uses one worker per available CPU.
	// The balanced forest is bit-identical at every worker count.
	Workers int
	// Codec selects the wire encoding of the balance payloads (queries,
	// responses, and the notify pattern).  The balanced forest is
	// bit-identical under every codec; only the byte volume changes.
	Codec WireCodec
}

// PhaseTimes records wall-clock durations of the one-pass balance phases as
// reported in Figures 15 and 17 of the paper: Local balance, Notify
// (encoding the communication pattern), Query and Response (message
// exchange plus response computation), and Local rebalance.
type PhaseTimes struct {
	LocalBalance  time.Duration
	Notify        time.Duration
	QueryResponse time.Duration
	Rebalance     time.Duration
}

// Total returns the sum over all phases.
func (p PhaseTimes) Total() time.Duration {
	return p.LocalBalance + p.Notify + p.QueryResponse + p.Rebalance
}

// Max returns the elementwise maximum of two phase timings.
func (p PhaseTimes) Max(q PhaseTimes) PhaseTimes {
	m := p
	if q.LocalBalance > m.LocalBalance {
		m.LocalBalance = q.LocalBalance
	}
	if q.Notify > m.Notify {
		m.Notify = q.Notify
	}
	if q.QueryResponse > m.QueryResponse {
		m.QueryResponse = q.QueryResponse
	}
	if q.Rebalance > m.Rebalance {
		m.Rebalance = q.Rebalance
	}
	return m
}

// AllreducePhaseTimes reduces per-rank phase timings to their elementwise
// maximum over all ranks, on every rank.  Collective.  The traffic is
// attributed to the caller's current phase label.
func AllreducePhaseTimes(c *comm.Comm, p PhaseTimes) PhaseTimes {
	return PhaseTimes{
		LocalBalance:  time.Duration(c.AllreduceMaxInt64(int64(p.LocalBalance))),
		Notify:        time.Duration(c.AllreduceMaxInt64(int64(p.Notify))),
		QueryResponse: time.Duration(c.AllreduceMaxInt64(int64(p.QueryResponse))),
		Rebalance:     time.Duration(c.AllreduceMaxInt64(int64(p.Rebalance))),
	}
}

// phaseSpan ties one balance phase to the observability layer: it labels
// the rank's comm traffic, opens a tracer span, and measures the phase.
// With a tracer attached the reported duration is the span's own clock —
// PhaseTimes then is literally a view over the trace (and follows a
// virtual clock in tests); without one it falls back to the local clock.
type phaseSpan struct {
	start time.Time
	sp    obs.Span
}

func beginPhase(c *comm.Comm, name string) phaseSpan {
	c.SetPhase(name)
	ps := phaseSpan{sp: c.Tracer().Begin(c.Rank(), name, "balance")}
	if !ps.sp.Live() {
		ps.start = time.Now()
	}
	return ps
}

func (p phaseSpan) end() time.Duration {
	if p.sp.Live() {
		return p.sp.End()
	}
	return time.Since(p.start)
}

// Message tags used by the balance exchange.
const (
	tagQuery    = 100
	tagResponse = 101
)

// PreclusionFaultLevels deliberately widens the response preclusion test by
// the given number of levels, making responders silently drop influences
// that the balance condition requires.  It exists solely so the
// differential-testing harness (internal/harness, cmd/stress -fault) can
// prove that it detects a broken balance; it must remain zero otherwise.
// Set it only while no Balance call is in flight.
var PreclusionFaultLevels int

// precluded reports whether a local leaf of level lv is too coarse to
// force any split of the query octant r: only octants at least two levels
// finer than r can split r (Section IV).  The level is the only field the
// test reads, so the response path never unpacks precluded candidates.
func precluded(lv int8, r octant.Octant) bool {
	return int(lv) < int(r.Level)+2+PreclusionFaultLevels
}

// queryRec is one balance query: the leaf r of a local chunk, expressed
// in the frame of responder tree tree (r may lie outside that tree's root
// cube when the interaction crosses a tree boundary), addressed to rank
// peer.  On the issuing rank chunk and leaf record the provenance — r is
// f.Local[chunk].Leaves[leaf] shifted into tree's frame — so a response
// finds its local leaf by index.  Queries received from another rank carry
// only tree and r.
type queryRec struct {
	peer, tree  int32
	r           octant.Octant
	chunk, leaf int32
}

// Balance enforces the k-balance condition across the entire forest using
// the one-pass parallel algorithm of Section II-B with the selected
// variants.  Collective.  It returns this rank's phase timings; reduce with
// AllreducePhaseTimes for the global maximum.  Each phase is one function
// with explicit inputs and outputs; Balance only sequences them and opens
// their spans.
func (f *Forest) Balance(c *comm.Comm, k int, opt BalanceOptions) PhaseTimes {
	if k < 1 || k > f.Conn.dim {
		panic("forest: invalid balance condition")
	}
	var times PhaseTimes
	workers := opt.workerCount()
	par := balancePool(c, workers)

	ps := beginPhase(c, "local-balance")
	f.localBalance(k, opt.Algo, par)
	times.LocalBalance = ps.end()

	ps = beginPhase(c, "query")
	recs := f.buildQueries(c, workers, par)
	queryBuildTime := ps.end()

	ps = beginPhase(c, "notify")
	sendTo, senders := notifyPattern(c, recs, opt)
	times.Notify = ps.end()

	// The query construction is reported as part of Query and Response,
	// the paper's grouping of Figures 15 and 17.
	ps = beginPhase(c, "query-response")
	infl := f.exchange(c, recs, sendTo, senders, k, opt.Algo, opt.Codec, workers, par)
	times.QueryResponse = ps.end() + queryBuildTime

	ps = beginPhase(c, "rebalance")
	f.rebalance(infl, k, opt.Algo, par)
	times.Rebalance = ps.end()

	c.SetPhase("default")
	f.NumGlobal = c.AllreduceSumInt64(f.NumLocal())
	return times
}

// balancePool returns the par function the balance phases fan their
// independent tasks out with: n tasks over the rank-local worker pool,
// bracketed by a local/par span.  The span is opened and closed on the
// rank's own goroutine (workers never touch the tracer), so the strict
// per-rank span nesting holds.
func balancePool(c *comm.Comm, workers int) func(n int, task func(i int)) {
	if workers > 1 {
		c.Tracer().ObserveMax(c.Rank(), obs.GaugeLocalWorkers, int64(workers))
	}
	return func(n int, task func(i int)) {
		if workers > 1 && n > 1 {
			sp := c.Tracer().Begin(c.Rank(), obs.SpanLocalPar, "balance")
			parallelFor(workers, n, task)
			sp.End()
			return
		}
		parallelFor(1, n, task)
	}
}

// localBalance is phase 1, Local balance: each local tree chunk is
// balanced as a subtree on its resident keys, clipped back to the owned
// curve range.  Chunks are independent (each is balanced within its own
// enclosing subtree), so they go to the pool as-is; a chunk is never
// subdivided further because balance interactions couple everything
// inside it.
func (f *Forest) localBalance(k int, algo Algo, par func(int, func(int))) {
	par(len(f.Local), func(i int) {
		tc := &f.Local[i]
		tc.Leaves = localBalanceChunkKeys(tc.Leaves, k, algo)
	})
}

// notifyPattern is phase 3, Notify: it reverses the asymmetric
// communication pattern of the query records.  It returns the ranks this
// rank sends queries to and the ranks it receives queries from.  Under
// the Ranges scheme the sender lists contain false positives; sendTo then
// covers them too, with zero-length queries, so every expected message
// exists.
func notifyPattern(c *comm.Comm, recs []queryRec, opt BalanceOptions) (sendTo, senders []int) {
	me := int32(c.Rank())
	var receivers []int
	for i, q := range recs {
		if q.peer != me && (i == 0 || q.peer != recs[i-1].peer) {
			receivers = append(receivers, int(q.peer))
		}
	}
	switch opt.Notify {
	case NotifyNaive:
		return receivers, notify.NaiveCodec(c, receivers, opt.Codec)
	case NotifyRanges:
		mr := opt.MaxRanges
		if mr <= 0 {
			mr = 8
		}
		senders = notify.RangesCodec(c, receivers, mr, opt.Codec)
		return notify.RangeCover(receivers, mr, c.Size(), c.Rank()), senders
	}
	return receivers, notify.NotifyCodec(c, receivers, opt.Codec)
}

// exchange is phase 4, Query and Response: it sends each receiver in
// sendTo its run of the query records, answers the queries of every rank
// in senders (which may include false positives with empty query lists
// under the Ranges scheme), answers the self queries — inter-tree
// interactions within this rank — through the same response path without
// messages, and collects every non-empty response as an influence on its
// issuing local leaf.
func (f *Forest) exchange(c *comm.Comm, recs []queryRec, sendTo, senders []int, k int, algo Algo, codec WireCodec, workers int, par func(int, func(int))) []influence {
	dim := int8(f.Conn.dim)
	for _, rank := range sendTo {
		qs := peerRun(recs, int32(rank))
		enc := wireEnc{b: comm.GetBuf(), codec: codec, dim: dim}
		enc.count(len(qs))
		for i := range qs {
			enc.tree(qs[i].tree)
			enc.oct(qs[i].r)
		}
		c.AddRawBytes(enc.raw)
		c.Send(rank, tagQuery, enc.b)
	}
	var st traverse.Stats
	for _, rank := range senders {
		data := c.Recv(rank, tagQuery)
		payload, raw := f.respond(data, k, algo, codec, workers, par, &st)
		c.AddRawBytes(raw)
		c.Send(rank, tagResponse, payload)
	}
	selfQs := peerRun(recs, int32(c.Rank()))
	var infl []influence
	for i, octs := range f.respondQueries(selfQs, k, algo, workers, par, &st) {
		if len(octs) > 0 {
			infl = append(infl, f.influenceOf(selfQs[i], octs))
		}
	}
	for _, rank := range sendTo {
		data := c.Recv(rank, tagResponse)
		qs := peerRun(recs, int32(rank))
		d := wireDec{b: data, codec: codec, dim: dim}
		for d.more() {
			t := d.tree()
			r := d.oct()
			octs := d.octs()
			if d.err != nil {
				break
			}
			i, found := slices.BinarySearchFunc(qs, queryRec{peer: int32(rank), tree: t, r: r}, compareQueryRecs)
			if !found {
				panic("forest: response for unknown query")
			}
			if len(octs) > 0 {
				infl = append(infl, f.influenceOf(qs[i], octs))
			}
		}
		if d.err != nil {
			panic("forest: corrupt response payload: " + d.err.Error())
		}
		comm.PutBuf(data) // octs decoded into fresh slices above
	}
	tr := c.Tracer()
	tr.Add(c.Rank(), "balance/respond-nodes", int64(st.Nodes))
	tr.Add(c.Rank(), "balance/respond-leaves", int64(st.Leaves))
	tr.Add(c.Rank(), "balance/respond-pruned", int64(st.Pruned))
	return infl
}

// rebalance is phase 5, Local rebalance: it merges the influences, already
// in the local frames, into the partition, grouped by issuing leaf — which
// in leaf-index order is the curve order of the leaves.
func (f *Forest) rebalance(infl []influence, k int, algo Algo, par func(int, func(int))) {
	slices.SortFunc(infl, func(a, b influence) int {
		if a.chunk != b.chunk {
			return int(a.chunk) - int(b.chunk)
		}
		return int(a.leaf) - int(b.leaf)
	})
	if algo == AlgoNew {
		f.rebalanceNew(infl, k, par)
		return
	}
	chunkRange := make([][2]int, len(f.Local))
	for i := range infl {
		ci := infl[i].chunk
		if chunkRange[ci][1] == 0 {
			chunkRange[ci][0] = i
		}
		chunkRange[ci][1] = i + 1
	}
	root := octant.KeyOf(octant.Root(f.Conn.dim))
	par(len(f.Local), func(i int) {
		lo, hi := chunkRange[i][0], chunkRange[i][1]
		if lo == hi {
			return
		}
		tc := &f.Local[i]
		tc.Leaves = rebalanceOld(root, tc.Leaves, infl[lo:hi], k)
	})
}

// rebalanceNew is the paper's Local rebalance.  The per-query-octant
// reconstructions across all local trees form one job list, so the pool
// stays busy even when the responses concentrate on a single tree; each
// reconstructed subtree is then spliced into its tree's leaf array (a
// k-way merge over contiguous leaf segments, itself parallel across
// trees).  infl must be sorted by issuing leaf.
func (f *Forest) rebalanceNew(infl []influence, k int, par func(int, func(int))) {
	var jobs []rebalanceJob
	jobRange := make([][2]int, len(f.Local))
	for i := 0; i < len(infl); {
		ci, li := infl[i].chunk, infl[i].leaf
		// Every octs slice is freshly decoded or computed, so the first
		// one can absorb the others.
		seeds := infl[i].octs
		for i++; i < len(infl) && infl[i].chunk == ci && infl[i].leaf == li; i++ {
			seeds = append(seeds, infl[i].octs...)
		}
		if jobRange[ci][1] == 0 {
			jobRange[ci][0] = len(jobs)
		}
		jobs = append(jobs, rebalanceJob{rk: f.Local[ci].Leaves[li], seeds: seeds})
		jobRange[ci][1] = len(jobs)
	}
	par(len(jobs), func(i int) {
		j := &jobs[i]
		seeds := octant.AppendKeys(make([]octant.Key, 0, len(j.seeds)), j.seeds)
		linear.SortKeys(seeds)
		seeds = slices.Compact(seeds)
		sub := balance.SubtreeNewKeys(j.rk, seeds, k)
		if len(sub) == 1 && sub[0] == j.rk {
			return // no split forced; keep the leaf
		}
		j.sub = sub
	})
	par(len(f.Local), func(i int) {
		lo, hi := jobRange[i][0], jobRange[i][1]
		if lo == hi {
			return
		}
		tc := &f.Local[i]
		tc.Leaves = spliceReplaceKeys(tc.Leaves, jobs[lo:hi])
	})
}

// compareQueryRecs is the order of the query records: by receiver, then
// by responder tree and the query octant's coordinate tuple (x, y, z,
// level).  The tuple order, rather than the Morton order the keys would
// give for free, is the order the query payloads have always been sent
// in: keeping it keeps the payload bytes — the WireV1 coordinate deltas
// and with them the metered comm bytes — identical.
func compareQueryRecs(a, b queryRec) int {
	switch {
	case a.peer != b.peer:
		return int(a.peer) - int(b.peer)
	case a.tree != b.tree:
		return int(a.tree) - int(b.tree)
	case a.r.X != b.r.X:
		return cmp.Compare(a.r.X, b.r.X)
	case a.r.Y != b.r.Y:
		return cmp.Compare(a.r.Y, b.r.Y)
	case a.r.Z != b.r.Z:
		return cmp.Compare(a.r.Z, b.r.Z)
	default:
		return int(a.r.Level) - int(b.r.Level)
	}
}

// peerRun returns the records addressed to rank, a run of the sorted
// record slice (empty if there is none).
func peerRun(recs []queryRec, rank int32) []queryRec {
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].peer >= rank })
	hi := lo
	for hi < len(recs) && recs[hi].peer == rank {
		hi++
	}
	return recs[lo:hi]
}

// influence is one non-empty response, in the frame of the local leaf
// f.Local[chunk].Leaves[leaf] whose query it answers: the seed octants
// (new algorithm) or raw octants (old algorithm) that leaf must be
// balanced against.
type influence struct {
	chunk, leaf int32
	octs        []octant.Octant
}

// influenceOf translates the response octs of query q from the responder's
// frame back into the frame of q's issuing leaf, in place.
func (f *Forest) influenceOf(q queryRec, octs []octant.Octant) influence {
	local := f.Local[q.chunk].Leaves[q.leaf].Octant()
	inv := Shift{local.X - q.r.X, local.Y - q.r.Y, local.Z - q.r.Z}
	for i := range octs {
		octs[i] = inv.Apply(octs[i])
	}
	return influence{chunk: q.chunk, leaf: q.leaf, octs: octs}
}

// respond processes one incoming query message and produces the response
// payload plus its v0-equivalent raw size: for each query octant, the local
// octants (old algorithm) or seed octants (new algorithm) that encode how
// the query octant must split.  The query buffer is recycled here.
func (f *Forest) respond(data []byte, k int, algo Algo, codec WireCodec, workers int, par func(int, func(int)), st *traverse.Stats) ([]byte, int) {
	dim := int8(f.Conn.dim)
	d := wireDec{b: data, codec: codec, dim: dim}
	minQuery := d.minOct() + 1 // tree id is at least one byte (4 in v0)
	if codec != WireV1 {
		minQuery = d.minOct() + 4
	}
	n := d.count(minQuery)
	qs := make([]queryRec, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		t := d.tree()
		r := d.oct()
		qs = append(qs, queryRec{tree: t, r: r})
	}
	if d.err != nil {
		panic("forest: corrupt query payload: " + d.err.Error())
	}
	comm.PutBuf(data) // queries decoded into fresh memory above
	resp := f.respondQueries(qs, k, algo, workers, par, st)
	enc := wireEnc{b: comm.GetBuf(), codec: codec, dim: dim}
	for i, octs := range resp {
		if len(octs) == 0 {
			continue
		}
		enc.tree(qs[i].tree)
		enc.oct(qs[i].r)
		enc.count(len(octs))
		for _, o := range octs {
			enc.oct(o)
		}
	}
	return enc.b, enc.raw
}

// respHit is one candidate (query, leaf) pair the simultaneous traversal
// matched: leaf index li of the chunk of query qi's tree intersects the
// insulation box of that query's octant and is fine enough to possibly
// split it.
type respHit struct {
	qi, li int32
}

// respondQueries computes the response octants of a list of queries against
// the local partition, as a slice aligned with qs.  The queries arrive
// sorted by tree (should a tree recur, it just opens another run), so each
// run of one tree is answered by one simultaneous
// traversal of that tree's chunk (traverse.SearchBoundaryKeys): the chunk's
// implicit octree is walked against the insulation boxes of the run's
// queries, so subtrees far from every query region are pruned wholesale.
// An aligned cube intersects an aligned insulation cell with positive
// volume only if one contains the other, so the matched set equals the
// classical per-region overlap union exactly.  Traversal tasks and then the
// per-query seed computations fan out over the worker pool via par; a
// stable counting sort regroups the curve-ordered hits by query, and each
// result lands in the slot of its query index, keeping the output
// bit-identical at every worker count.  st accumulates traversal work
// counters.
func (f *Forest) respondQueries(qs []queryRec, k int, algo Algo, workers int, par func(int, func(int)), st *traverse.Stats) [][]octant.Octant {
	results := make([][]octant.Octant, len(qs))
	rootKey := octant.KeyOf(octant.Root(f.Conn.dim))
	maxTasks := 1
	if workers > 1 {
		maxTasks = 4 * workers
	}
	var hits []respHit
	qchunk := make([]int32, len(qs)) // chunk of each query's tree
	for lo, hi := 0, 0; lo < len(qs); lo = hi {
		for hi = lo + 1; hi < len(qs) && qs[hi].tree == qs[lo].tree; hi++ {
		}
		ci := f.chunkIndex(qs[lo].tree)
		if ci < 0 {
			continue // no local leaves in this tree: nothing to answer
		}
		tc := &f.Local[ci]
		boxes := make([]traverse.Box, hi-lo)
		for i := range boxes {
			qchunk[lo+i] = int32(ci)
			boxes[i] = traverse.InsulationBox(qs[lo+i].r)
		}
		tasks := traverse.SplitTasksKeys(rootKey, tc.Leaves, maxTasks)
		taskHits := make([][]respHit, len(tasks))
		taskStats := make([]traverse.Stats, len(tasks))
		par(len(tasks), func(i int) {
			t := tasks[i]
			var out []respHit
			traverse.SearchBoundaryKeys(t.Root, tc.Leaves[t.Lo:t.Hi], boxes, func(li, bi int) {
				abs := int32(t.Lo + li)
				if precluded(tc.Leaves[abs].Level(), qs[lo+bi].r) {
					return
				}
				out = append(out, respHit{qi: int32(lo + bi), li: abs})
			}, &taskStats[i])
			taskHits[i] = out
		})
		for i := range tasks {
			hits = append(hits, taskHits[i]...)
			st.Merge(taskStats[i])
		}
	}
	// Regroup the curve-ordered hits into one contiguous run per query with
	// a stable counting sort on the query index, then compute each query's
	// response from its run.
	runStart := make([]int32, len(qs)+1)
	for _, h := range hits {
		runStart[h.qi+1]++
	}
	for i := range qs {
		runStart[i+1] += runStart[i]
	}
	byQuery := make([]int32, len(hits)) // leaf indices, grouped by query
	next := slices.Clone(runStart[:len(qs)])
	for _, h := range hits {
		byQuery[next[h.qi]] = h.li
		next[h.qi]++
	}
	par(len(qs), func(qi int) {
		run := byQuery[runStart[qi]:runStart[qi+1]]
		if len(run) == 0 {
			return
		}
		r := qs[qi].r
		leaves := f.Local[qchunk[qi]].Leaves
		var resp []octant.Octant
		for _, li := range run {
			o := leaves[li].Octant()
			if algo == AlgoNew {
				if seeds, splits := balance.Seeds(o, r, k); splits {
					resp = append(resp, seeds...)
				}
			} else {
				resp = append(resp, o)
			}
		}
		if len(resp) > 0 {
			linear.Sort(resp)
			results[qi] = slices.Compact(resp)
		}
	})
	return results
}

// queryPrunable reports whether no leaf below virtual node w of tree t can
// generate a balance query: w's own region is owned entirely by rank me and
// every insulation cell of w is outside the domain, or maps back to the
// same tree with all of its region owned by me.  The same-tree condition
// matters because rank-local interactions that cross a tree boundary still
// become self queries.  Soundness follows the same lattice-alignment
// argument as (*Forest).ghostPrunable.
//
// w and the insulation grid are packed: the cell fan comes from the batch
// neighbor kernel (octant.KeyNeighbors into buf, len(dirs) entries), and
// every cell resolves through the packed-key cellOwners — in-root cells on
// the owner table, cells across the root boundary on the connectivity's
// neighbor table — without materializing coordinates.
func (f *Forest) queryPrunable(ot *ownerTable, dirs []octant.Dir, buf []octant.Key, t int32, w octant.Key, me int) bool {
	if first, last := ot.ownersOfRegionKey(t, w); first != me || last != me {
		return false
	}
	octant.KeyNeighbors(w, dirs, buf)
	for _, cell := range buf[:len(dirs)] {
		ti, _, first, last, ok := f.cellOwners(ot, t, cell)
		if !ok {
			continue // domain boundary: no interaction
		}
		if ti != t || first != me || last != me {
			return false
		}
	}
	return true
}

// boundaryTask is one subtree window of a local chunk with the ascending
// indices of its leaves that can generate balance queries.
type boundaryTask struct {
	chunk  int
	window traverse.TaskKeys
	leaves []int32
}

// queryBoundaryLeaves returns the leaves that can generate balance queries
// — those not under a subtree the recursive traversal proved to have an
// entirely same-tree, rank-local insulation neighborhood — as subtree
// tasks in chunk and curve order.  Leaves outside the result contribute
// nothing to the query sets, so enumerating only the survivors reproduces
// phase 2 exactly.  The tasks fan out over the worker pool; the task split
// depends only on the worker count, and the query records built from it
// are identical at any count.
func (f *Forest) queryBoundaryLeaves(me, workers int, par func(int, func(int))) ([]boundaryTask, traverse.Stats) {
	dirs := octant.Directions(f.Conn.dim, f.Conn.dim)
	rootKey := octant.KeyOf(octant.Root(f.Conn.dim))
	ot := f.ownerTable() // warmed serially; workers only read it
	maxTasks := 1
	if workers > 1 {
		maxTasks = 4 * workers
	}
	var tasks []boundaryTask
	for ci := range f.Local {
		for _, t := range traverse.SplitTasksKeys(rootKey, f.Local[ci].Leaves, maxTasks) {
			tasks = append(tasks, boundaryTask{chunk: ci, window: t})
		}
	}
	taskStats := make([]traverse.Stats, len(tasks))
	par(len(tasks), func(i int) {
		w, tc := tasks[i].window, &f.Local[tasks[i].chunk]
		var idx []int32
		buf := make([]octant.Key, len(dirs))
		traverse.SearchKeys(w.Root, tc.Leaves[w.Lo:w.Hi], func(n octant.Key, lo, _ int, isLeaf bool) bool {
			if isLeaf {
				idx = append(idx, int32(w.Lo+lo))
				return true
			}
			return !f.queryPrunable(ot, dirs, buf, tc.Tree, n, me)
		}, &taskStats[i])
		tasks[i].leaves = idx
	})
	var st traverse.Stats
	for i := range taskStats {
		st.Merge(taskStats[i])
	}
	return tasks, st
}

// leafPeer is one distinct (receiver, neighbor cell) pair of a boundary
// leaf: the leaf's query to that receiver in the frame of the tree in
// that cell of its tree's neighbor table.
type leafPeer struct {
	peer int32
	cell int32
}

// buildQueries is phase 2 of Balance, query construction.  A recursive
// traversal per tree chunk (queryBoundaryLeaves) first narrows the curve
// down to the leaves whose insulation layer can leave the local partition
// or cross a tree boundary.  Every surviving boundary leaf then fans out
// its insulation layer (octant.KeyNeighbors), resolves each cell's tree
// and owner ranks on packed keys (cellOwners), and emits one record per
// distinct (receiver, neighbor cell) — a query depends only on those and
// the leaf, not on the direction that found it, so the 3^d-1 directions
// collapse per leaf before anything is stored.  Same-tree interactions
// with this rank itself are phase 1's business and emit nothing.  The
// boundary tasks emit in parallel; the concatenation is sorted once into
// compareQueryRecs order, so receiver lists, self queries and provenance
// are runs and indices of that one slice.  The traversal work and the
// record count go to c's tracer as balance/query-* counters.
func (f *Forest) buildQueries(c *comm.Comm, workers int, par func(int, func(int))) []queryRec {
	me := c.Rank()
	tasks, st := f.queryBoundaryLeaves(me, workers, par)
	dirs := octant.Directions(f.Conn.dim, f.Conn.dim)
	ot := f.ownerTable()
	taskRecs := make([][]queryRec, len(tasks))
	par(len(tasks), func(i int) {
		tk := tasks[i]
		tc := &f.Local[tk.chunk]
		buf := make([]octant.Key, len(dirs))
		var targets []leafPeer
		var out []queryRec
		// In a tree this rank owns whole, only cells across the root
		// boundary can emit: a leaf whose insulation layer stays in the
		// root, as its two extreme corner cells show, skips the fan.
		whole := ot.trees[tc.Tree] == [2]int{me, me}
		for _, li := range tk.leaves {
			k := tc.Leaves[li]
			if whole && k.Neighbor(octant.Dir{-1, -1, -1}).InsideRoot() && k.Neighbor(octant.Dir{1, 1, 1}).InsideRoot() {
				continue
			}
			octant.KeyNeighbors(k, dirs, buf)
			targets = targets[:0]
			for _, cell := range buf[:len(dirs)] {
				ti, nb, first, last, ok := f.cellOwners(ot, tc.Tree, cell)
				if !ok {
					continue // domain boundary
				}
				for rank := first; rank <= last; rank++ {
					if rank == me && ti == tc.Tree {
						continue
					}
					if p := (leafPeer{peer: int32(rank), cell: int32(nb)}); !slices.Contains(targets, p) {
						targets = append(targets, p)
					}
				}
			}
			if len(targets) == 0 {
				continue
			}
			r := k.Octant()
			for _, p := range targets {
				nbr := f.Conn.neighbor(tc.Tree, int(p.cell))
				out = append(out, queryRec{
					peer: p.peer, tree: nbr.tree, r: nbr.shift.Apply(r),
					chunk: int32(tk.chunk), leaf: li,
				})
			}
		}
		taskRecs[i] = out
	})
	n := 0
	for _, rs := range taskRecs {
		n += len(rs)
	}
	recs := make([]queryRec, 0, n)
	for _, rs := range taskRecs {
		recs = append(recs, rs...)
	}
	slices.SortFunc(recs, compareQueryRecs)
	tr := c.Tracer()
	tr.Add(me, "balance/query-nodes", int64(st.Nodes))
	tr.Add(me, "balance/query-leaves", int64(st.Leaves))
	tr.Add(me, "balance/query-pruned", int64(st.Pruned))
	tr.Add(me, "balance/query-records", int64(len(recs)))
	return recs
}

// rebalanceJob is one unit of the paper's Local rebalance: the seeds
// received for query octant r are balanced inside r (reconstructing
// Tk(o) ∩ r for all influencing octants o at once), and the resulting
// subtree replaces r in the partition.  Jobs are independent, so Balance
// hands them to the worker pool; sub stays nil when r need not split.
// rk is r packed, the form the subtree reconstruction and the splice
// merge operate on.
type rebalanceJob struct {
	rk    octant.Key
	seeds []octant.Octant
	sub   []octant.Key
}

// spliceReplaceKeys merges the reconstructed subtrees into the tree's leaf
// array: each job's subtree replaces the leaf it was built for.  jobs must
// be sorted by rk.  Every r is expected to be a current leaf — queries are
// built from the phase-1 leaves, which do not change until this phase, and
// SubtreeNewKeys(rk, ...) returns a complete subtree of rk — so replacing
// the leaf by its subtree in place preserves sortedness and linearity
// without the global sort+linearize pass this merge used to run.  Should
// an r ever not match a leaf, the general merge handles it.
func spliceReplaceKeys(leaves []octant.Key, jobs []rebalanceJob) []octant.Key {
	grow := 0
	for i := range jobs {
		if jobs[i].sub != nil {
			grow += len(jobs[i].sub) - 1
		}
	}
	if grow == 0 {
		return leaves
	}
	out := make([]octant.Key, 0, len(leaves)+grow)
	j, matched := 0, 0
	for _, leaf := range leaves {
		for j < len(jobs) && octant.KeyLess(jobs[j].rk, leaf) {
			j++ // r is not a leaf; resolved by the fallback below
		}
		if j < len(jobs) && jobs[j].rk == leaf {
			if sub := jobs[j].sub; sub != nil {
				out = append(out, sub...)
			} else {
				out = append(out, leaf)
			}
			j++
			matched++
		} else {
			out = append(out, leaf)
		}
	}
	if matched == len(jobs) {
		return out
	}
	merged := make([]octant.Key, 0, len(leaves)+grow+len(jobs))
	merged = append(merged, leaves...)
	for i := range jobs {
		merged = append(merged, jobs[i].sub...)
	}
	linear.SortKeys(merged)
	return linear.LinearizeKeys(merged)
}

// rebalanceOld is the pre-paper Local rebalance: the whole partition chunk
// is rebalanced at tree scope together with all received raw octants, using
// auxiliary octants for out-of-root and distant influences, and the result
// is clipped back to the owned range.
func rebalanceOld(root octant.Key, leaves []octant.Key, infl []influence, k int) []octant.Key {
	in := slices.Clone(leaves)
	var outside []octant.Key
	for _, inf := range infl {
		for _, o := range inf.octs {
			if key := octant.KeyOf(o); root.IsAncestorOrEqual(key) {
				in = append(in, key)
			} else {
				outside = append(outside, key)
			}
		}
	}
	linear.SortKeys(in)
	in = slices.Compact(in)
	bal, _ := balance.SubtreeOldKeys(root, in, outside, k)
	return clipToRangeKeys(bal, leaves[0], leaves[len(leaves)-1])
}
