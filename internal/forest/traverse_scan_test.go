package forest

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/octant"
)

// bruteGhostSends reproduces the classical per-leaf × per-direction ghost
// send enumeration (the pre-traversal BuildGhost loop) as an oracle for the
// recursive GhostScan.
func bruteGhostSends(f *Forest, me int) []GhostSend {
	dirs := octant.Directions(f.Conn.dim, f.Conn.dim)
	set := make(map[GhostSend]bool)
	for _, tc := range f.Local {
		for _, o := range tc.Octants() {
			for _, d := range dirs {
				n := o.Neighbor(d)
				ti, n2, _, ok := f.Conn.Canonicalize(tc.Tree, n)
				if !ok {
					continue
				}
				first, last := f.OwnersOfRegion(ti, n2)
				for rank := first; rank <= last; rank++ {
					if rank == me {
						continue
					}
					set[GhostSend{Rank: rank, Tree: tc.Tree, Oct: o}] = true
				}
			}
		}
	}
	out := make([]GhostSend, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	slices.SortFunc(out, compareGhostSends)
	return out
}

func serialPar(n int, task func(int)) {
	for i := 0; i < n; i++ {
		task(i)
	}
}

// TestGhostScanMatchesBruteScan checks the recursive ghost traversal emits
// exactly the classical per-leaf send schedule across topologies (including
// periodic and masked bricks), world sizes and worker counts, and that at
// P=1 the traversal prunes every leaf (nothing can be remote).
func TestGhostScanMatchesBruteScan(t *testing.T) {
	topos := []struct {
		name string
		conn *Connectivity
	}{
		{"single2d", NewBrick(2, 1, 1, 1, [3]bool{})},
		{"brick2d", NewBrick(2, 3, 2, 1, [3]bool{})},
		{"periodic2d", NewBrick(2, 4, 3, 1, [3]bool{true, false, false})},
		{"masked2d", NewMaskedBrick(2, 3, 3, 1, [3]bool{}, func(x, y, z int) bool { return x != 1 || y != 1 })},
		{"periodic3d", NewBrick(3, 2, 3, 2, [3]bool{false, true, false})},
	}
	for _, topo := range topos {
		depth := 3
		if topo.conn.dim == 3 {
			depth = 2
		}
		for _, p := range []int{1, 3, 5} {
			runForest(t, topo.conn, p, 1, func(c *comm.Comm, f *Forest) {
				f.Refine(c, depth, fractalRefine(depth))
				f.Partition(c, nil)
				me := c.Rank()
				want := bruteGhostSends(f, me)
				for _, workers := range []int{0, 3} {
					f.Workers = workers
					got, st := f.GhostScan(me)
					if len(got) != len(want) {
						t.Errorf("%s P=%d rank %d workers %d: %d sends, brute force %d",
							topo.name, p, me, workers, len(got), len(want))
						return
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("%s P=%d rank %d workers %d: send %d is %+v, want %+v",
								topo.name, p, me, workers, i, got[i], want[i])
							return
						}
					}
					if p == 1 && workers == 0 && st.Leaves != 0 {
						t.Errorf("%s P=1: traversal visited %d leaves; everything is rank-local and should prune",
							topo.name, st.Leaves)
					}
				}
			})
		}
	}
}

// classicalQuery is one balance query of the classical enumeration: the
// query octant r in the frame of responder tree tree, and its provenance,
// the local leaf src of tree srcTree that issued it.
type classicalQuery struct {
	tree    int32
	r       octant.Octant
	srcTree int32
	src     octant.Octant
}

// classicalQueries reproduces the classical phase-2 enumeration of Balance —
// every local leaf × every insulation direction, struct Canonicalize and
// OwnersOfRegion, set semantics per query — as an oracle for the record
// construction.  It returns per peer rank the queries in wire order (tree,
// then the octant's x, y, z, level), the self queries in the same order,
// and the provenance of every query.
func classicalQueries(f *Forest, me int) (remote map[int][]classicalQuery, self []classicalQuery) {
	dirs := octant.Directions(f.Conn.dim, f.Conn.dim)
	sets := make(map[int]map[classicalQuery]bool)
	for _, tc := range f.Local {
		for _, r := range tc.Octants() {
			for _, d := range dirs {
				ti, ins, shift, ok := f.Conn.Canonicalize(tc.Tree, r.Neighbor(d))
				if !ok {
					continue
				}
				first, last := f.OwnersOfRegion(ti, ins)
				for rank := first; rank <= last; rank++ {
					if rank == me && ti == tc.Tree {
						continue // same-tree self interactions: local balance
					}
					if sets[rank] == nil {
						sets[rank] = make(map[classicalQuery]bool)
					}
					sets[rank][classicalQuery{tree: ti, r: shift.Apply(r), srcTree: tc.Tree, src: r}] = true
				}
			}
		}
	}
	remote = make(map[int][]classicalQuery)
	for rank, set := range sets {
		qs := make([]classicalQuery, 0, len(set))
		for q := range set {
			qs = append(qs, q)
		}
		slices.SortFunc(qs, func(a, b classicalQuery) int {
			ka := [5]int64{int64(a.tree), int64(a.r.X), int64(a.r.Y), int64(a.r.Z), int64(a.r.Level)}
			kb := [5]int64{int64(b.tree), int64(b.r.X), int64(b.r.Y), int64(b.r.Z), int64(b.r.Level)}
			return slices.Compare(ka[:], kb[:])
		})
		if rank == me {
			self = qs
		} else {
			remote[rank] = qs
		}
	}
	return remote, self
}

// queryTopologies are the macro-meshes of the query construction tests:
// plain, periodic and masked 2D bricks and the 3D six-tree fractal brick.
func queryTopologies() []struct {
	name string
	conn *Connectivity
} {
	return []struct {
		name string
		conn *Connectivity
	}{
		{"brick2d", NewBrick(2, 3, 2, 1, [3]bool{})},
		{"periodic2d", NewBrick(2, 4, 3, 1, [3]bool{true, false, false})},
		{"masked2d", NewMaskedBrick(2, 3, 3, 1, [3]bool{}, func(x, y, z int) bool { return x != 1 || y != 1 })},
		{"fractal3d", NewBrick(3, 3, 2, 1, [3]bool{})},
	}
}

// TestQueryBoundaryLeavesComplete checks every leaf that generates a
// balance query (by the classical enumeration) appears in the traversal's
// boundary index lists, and the lists are ascending and in range.
func TestQueryBoundaryLeavesComplete(t *testing.T) {
	for _, topo := range queryTopologies()[:3] {
		for _, p := range []int{1, 4} {
			runForest(t, topo.conn, p, 1, func(c *comm.Comm, f *Forest) {
				f.Refine(c, 3, fractalRefine(3))
				f.Partition(c, nil)
				me := c.Rank()
				tasks, _ := f.queryBoundaryLeaves(me, 1, serialPar)
				listed := make(map[[2]int32]bool)
				prev := [2]int32{-1, -1}
				for _, tk := range tasks {
					tc := &f.Local[tk.chunk]
					for _, li := range tk.leaves {
						cur := [2]int32{int32(tk.chunk), li}
						if slices.Compare(cur[:], prev[:]) <= 0 || int(li) >= len(tc.Leaves) {
							t.Errorf("%s P=%d rank %d tree %d: bad boundary index %d after %v",
								topo.name, p, me, tc.Tree, li, prev)
							return
						}
						prev = cur
						listed[[2]int32{tc.Tree, li}] = true
					}
				}
				remote, self := classicalQueries(f, me)
				all := self
				for _, qs := range remote {
					all = append(all, qs...)
				}
				for _, q := range all {
					{
						li, _ := slices.BinarySearchFunc(f.chunkFor(q.srcTree).Leaves, octant.KeyOf(q.src), octant.KeyCompare)
						if !listed[[2]int32{q.srcTree, int32(li)}] {
							t.Errorf("%s P=%d rank %d tree %d: leaf %v generates a query but was pruned",
								topo.name, p, me, q.srcTree, q.src)
							return
						}
					}
				}
			})
		}
	}
}

// TestQueryRecordsMatchClassical checks the packed-key, per-leaf
// deduplicated query records equal the classical enumeration element for
// element: per receiver the same queries in the same (wire) order — which
// pins the query payload bytes — the same self queries, and the same
// provenance, across topologies, world sizes and worker counts.
func TestQueryRecordsMatchClassical(t *testing.T) {
	for _, topo := range queryTopologies() {
		depth := 4
		if topo.conn.dim == 3 {
			depth = 3
		}
		for _, p := range []int{1, 4, 13} {
			runForest(t, topo.conn, p, 1, func(c *comm.Comm, f *Forest) {
				f.Refine(c, depth, fractalRefine(depth))
				f.Partition(c, nil)
				me := c.Rank()
				remote, self := classicalQueries(f, me)
				for _, workers := range []int{1, 3} {
					par := func(n int, task func(int)) { parallelFor(workers, n, task) }
					recs := f.buildQueries(c, workers, par)
					got := make(map[int][]classicalQuery)
					for _, q := range recs {
						tc := &f.Local[q.chunk]
						got[int(q.peer)] = append(got[int(q.peer)], classicalQuery{
							tree: q.tree, r: q.r, srcTree: tc.Tree, src: tc.Leaves[q.leaf].Octant(),
						})
					}
					want := maps.Clone(remote)
					if len(self) > 0 {
						want[me] = self
					}
					if len(got) != len(want) {
						t.Errorf("%s P=%d rank %d workers %d: %d receivers, classical %d",
							topo.name, p, me, workers, len(got), len(want))
						return
					}
					for rank, qs := range want {
						if !slices.Equal(got[rank], qs) {
							t.Errorf("%s P=%d rank %d workers %d: queries to rank %d differ (%d records, classical %d)",
								topo.name, p, me, workers, rank, len(got[rank]), len(qs))
							return
						}
					}
				}
			})
		}
	}
}

// TestQueryRecordsCounter checks Balance reports the number of query
// records it emitted as the balance/query-records counter: per rank, the
// classical query count over all receivers and self.  The forest is
// balanced once first, so the local balance of the counted call leaves
// the leaves the oracle enumerates unchanged.
func TestQueryRecordsCounter(t *testing.T) {
	const p = 4
	conn := NewBrick(2, 3, 2, 1, [3]bool{})
	tracer := obs.NewTracer(p)
	w := comm.NewWorld(p)
	w.SetTracer(tracer)
	got, want := make([]int64, p), make([]int64, p)
	w.Run(func(c *comm.Comm) {
		f := NewUniform(conn, c, 1)
		f.Refine(c, 4, fractalRefine(4))
		f.Partition(c, nil)
		f.Balance(c, 2, BalanceOptions{})
		remote, self := classicalQueries(f, c.Rank())
		want[c.Rank()] = int64(len(self))
		for _, qs := range remote {
			want[c.Rank()] += int64(len(qs))
		}
		before := tracer.Counter(c.Rank(), "balance/query-records")
		f.Balance(c, 2, BalanceOptions{})
		got[c.Rank()] = tracer.Counter(c.Rank(), "balance/query-records") - before
	})
	for r := 0; r < p; r++ {
		if got[r] != want[r] || got[r] == 0 {
			t.Errorf("rank %d: balance/query-records = %d, want %d (nonzero)", r, got[r], want[r])
		}
	}
}
