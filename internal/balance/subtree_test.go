package balance

import (
	"math/rand"
	"testing"

	"repro/internal/linear"
	"repro/internal/octant"
	"repro/internal/otest"
)

// kRange returns the balance conditions to test in dim dimensions.
func kRange(dim int) []int {
	if dim == 2 {
		return []int{1, 2}
	}
	return []int{1, 2, 3}
}

func TestRippleProducesBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for _, k := range kRange(dim) {
			for trial := 0; trial < 10; trial++ {
				in := otest.RandomGraded(rng, root, 6)
				out := Ripple(root, in, k)
				if !linear.IsLinear(out) || !linear.IsComplete(root, out) {
					t.Fatalf("dim %d k %d: ripple output not a complete linear octree", dim, k)
				}
				if err := Check(root, out, k); err != nil {
					t.Fatalf("dim %d k %d: ripple output unbalanced: %v", dim, k, err)
				}
				// Inputs survive (possibly refined, never coarsened):
				// every input octant is a leaf or an ancestor of leaves.
				for _, o := range in {
					lo, hi := linear.OverlapRange(out, o)
					if hi <= lo {
						t.Fatalf("input octant %v lost", o)
					}
					if out[lo].IsAncestor(o) {
						t.Fatalf("input octant %v was coarsened to %v", o, out[lo])
					}
				}
			}
		}
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	root := octant.Root(2)
	// A level-1 octant next to level-3 octants across a face.
	in := []octant.Octant{root.Child(0), root.Child(1).Child(0).Child(0)}
	complete := linear.Complete(root, in)
	if err := Check(root, complete, 1); err == nil {
		t.Fatal("Check accepted a face-unbalanced octree")
	}
	bal := Ripple(root, in, 1)
	if err := Check(root, bal, 1); err != nil {
		t.Fatalf("Check rejected a balanced octree: %v", err)
	}
	// Face balance does not imply corner balance.
	if err := Check(root, bal, 2); err == nil {
		t.Log("note: face-balanced tree happened to be corner balanced (allowed)")
	}
}

func TestSubtreeOldMatchesRipple(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for _, k := range kRange(dim) {
			for trial := 0; trial < 8; trial++ {
				in := otest.RandomGraded(rng, root, 6)
				want := Ripple(root, in, k)
				got := SubtreeOld(root, in, k)
				if !otest.Equal(got, want) {
					t.Fatalf("dim %d k %d trial %d: SubtreeOld != Ripple (%d vs %d leaves)",
						dim, k, trial, len(got), len(want))
				}
			}
		}
	}
}

func TestSubtreeNewMatchesRipple(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for _, k := range kRange(dim) {
			for trial := 0; trial < 8; trial++ {
				in := otest.RandomGraded(rng, root, 6)
				want := Ripple(root, in, k)
				got := SubtreeNew(root, in, k)
				if !otest.Equal(got, want) {
					t.Fatalf("dim %d k %d trial %d: SubtreeNew != Ripple (%d vs %d leaves)",
						dim, k, trial, len(got), len(want))
				}
			}
		}
	}
}

func TestSubtreeAlgorithmsAgreeOnRandomComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for _, k := range kRange(dim) {
			for trial := 0; trial < 15; trial++ {
				in := otest.RandomComplete(rng, root, 5, 0.6)
				oldOut := SubtreeOld(root, in, k)
				newOut := SubtreeNew(root, in, k)
				if !otest.Equal(oldOut, newOut) {
					t.Fatalf("dim %d k %d: algorithms disagree (%d vs %d leaves)",
						dim, k, len(oldOut), len(newOut))
				}
			}
		}
	}
}

func TestSubtreeIncompleteInput(t *testing.T) {
	// Both algorithms must work on incomplete inputs (Section IV uses them
	// to reconstruct subtrees from seeds).
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for _, k := range kRange(dim) {
			for trial := 0; trial < 10; trial++ {
				complete := otest.RandomComplete(rng, root, 5, 0.6)
				sub := otest.RandomSubset(rng, complete, 0.2)
				want := Ripple(root, sub, k)
				oldOut := SubtreeOld(root, sub, k)
				newOut := SubtreeNew(root, sub, k)
				if !otest.Equal(oldOut, want) {
					t.Fatalf("dim %d k %d: SubtreeOld(incomplete) != Ripple", dim, k)
				}
				if !otest.Equal(newOut, want) {
					t.Fatalf("dim %d k %d: SubtreeNew(incomplete) != Ripple", dim, k)
				}
			}
		}
	}
}

func TestSubtreeNonRootSubtree(t *testing.T) {
	// Balancing must work with an arbitrary octant as subtree root.
	rng := rand.New(rand.NewSource(6))
	for _, dim := range []int{2, 3} {
		for _, k := range kRange(dim) {
			sub := octant.Root(dim).Child(3).Child(1) // level-2 subtree root
			in := otest.RandomGraded(rng, sub, 8)
			want := Ripple(sub, in, k)
			oldOut := SubtreeOld(sub, in, k)
			newOut := SubtreeNew(sub, in, k)
			if !otest.Equal(oldOut, want) || !otest.Equal(newOut, want) {
				t.Fatalf("dim %d k %d: subtree-rooted balance disagrees", dim, k)
			}
			if err := Check(sub, want, k); err != nil {
				t.Fatalf("subtree-rooted result unbalanced: %v", err)
			}
		}
	}
}

func TestSubtreeTrivialInputs(t *testing.T) {
	root := octant.Root(2)
	for _, algo := range []func(octant.Octant, []octant.Octant, int) []octant.Octant{SubtreeOld, SubtreeNew} {
		if got := algo(root, nil, 1); len(got) != 1 || got[0] != root {
			t.Fatalf("balance of empty input = %v, want root", got)
		}
		if got := algo(root, []octant.Octant{root}, 1); len(got) != 1 || got[0] != root {
			t.Fatalf("balance of root = %v, want root", got)
		}
		one := []octant.Octant{root.Child(2)}
		got := algo(root, one, 2)
		want := linear.Complete(root, one)
		if !otest.Equal(got, want) {
			t.Fatalf("balance of single child = %v, want completion", got)
		}
	}
}

func TestSubtreeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for _, k := range kRange(dim) {
			in := otest.RandomGraded(rng, root, 6)
			once := SubtreeNew(root, in, k)
			twice := SubtreeNew(root, once, k)
			if !otest.Equal(once, twice) {
				t.Fatalf("dim %d k %d: balance not idempotent", dim, k)
			}
		}
	}
}

func TestSubtreeStatsImprovement(t *testing.T) {
	// Section III-B: the new algorithm needs roughly 3x fewer hash queries
	// and sorts a set smaller by about 2^d.  Verify the direction (strict
	// improvement) and the order of magnitude on a graded mesh.
	rng := rand.New(rand.NewSource(8))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		in := otest.RandomGraded(rng, root, 8)
		k := dim
		outOld, stOld := SubtreeOldStats(root, in, k)
		outNew, stNew := SubtreeNewStats(root, in, k)
		if !otest.Equal(outOld, outNew) {
			t.Fatal("outputs disagree")
		}
		if stNew.HashQueries >= stOld.HashQueries {
			t.Errorf("dim %d: new hash queries %d >= old %d", dim, stNew.HashQueries, stOld.HashQueries)
		}
		if stNew.SortedOctants*2 >= stOld.SortedOctants {
			t.Errorf("dim %d: new sorted set %d not substantially smaller than old %d",
				dim, stNew.SortedOctants, stOld.SortedOctants)
		}
		t.Logf("dim %d: hash queries old %d new %d (%.1fx); sorted old %d new %d (%.1fx)",
			dim, stOld.HashQueries, stNew.HashQueries, float64(stOld.HashQueries)/float64(stNew.HashQueries),
			stOld.SortedOctants, stNew.SortedOctants, float64(stOld.SortedOctants)/float64(stNew.SortedOctants))
	}
}

func TestTkShape(t *testing.T) {
	// Figure 3: sizes in Tk(o) increase outward in a ripple-like fashion.
	root := octant.Root(2)
	o := octant.New(2, 5, 12*octant.Len(5), 9*octant.Len(5), 0)
	for _, k := range []int{1, 2} {
		tree := Tk(root, o, k)
		if err := Check(root, tree, k); err != nil {
			t.Fatalf("Tk(o) unbalanced: %v", err)
		}
		if !linear.Contains(tree, o) {
			t.Fatal("o is not a leaf of Tk(o)")
		}
		// No leaf may be finer than o.
		for _, q := range tree {
			if q.Level > o.Level {
				t.Fatalf("leaf %v finer than o (level %d)", q, o.Level)
			}
		}
		// Coarsest: coarsening any leaf family must break balance or o.
		// (Spot check: the tree is strictly coarser away from o.)
		var far, near octant.Octant
		near = tree[0]
		for _, q := range tree {
			if dist(q, o) > dist(far, o) {
				far = q
			}
			if q != o && dist(q, o) < dist(near, o) {
				near = q
			}
		}
		if far.Level >= near.Level && len(tree) > 4 {
			t.Errorf("k=%d: farthest leaf (level %d) not coarser than nearest (level %d)",
				k, far.Level, near.Level)
		}
	}
}

func dist(a, b octant.Octant) int64 {
	var s int64
	for i := 0; i < int(a.Dim); i++ {
		d := int64(a.Coord(i)) - int64(b.Coord(i))
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

func TestSubtreeOldExtendedMatchesTkOverlap(t *testing.T) {
	// The old algorithm's auxiliary-octant ripple from an outside octant
	// must reconstruct the same overlap Tk(o) ∩ r that the seed-based new
	// path produces (Section IV, Figure 4b vs Figure 9).
	rng := rand.New(rand.NewSource(20))
	for _, dim := range []int{2, 3} {
		for _, k := range kRange(dim) {
			for trial := 0; trial < 200; trial++ {
				o := otest.RandomOctant(rng, dim, 3, 6)
				r := otest.RandomOctant(rng, dim, 1, int(o.Level)-1)
				if r.Overlaps(o) {
					continue
				}
				want := TkOverlap(o, r, k)
				got := SubtreeOldExtended(r, nil, []octant.Octant{o}, k)
				if !otest.Equal(got, want) {
					t.Fatalf("dim %d k %d: old-extended %d leaves != TkOverlap %d leaves for o=%v r=%v",
						dim, k, len(got), len(want), o, r)
				}
			}
		}
	}
	// Outside octants across the root's negative-coordinate faces, with r
	// on those faces: the auxiliary octants bridging o to r cross from
	// negative to nonnegative coordinates, the sign boundary of the packed
	// key layout.  The oracle is Tk(o) ∩ r by the ripple on a root holding
	// both after a translation, not TkOverlap: the seed construction
	// misses splits in some of these geometries (see ROADMAP.md).
	split := 0
	for _, dim := range []int{2, 3} {
		for _, k := range kRange(dim) {
			for trial := 0; trial < 100; trial++ {
				o := otest.RandomOctant(rng, dim, 3, 6)
				r := otest.RandomOctant(rng, dim, 1, int(o.Level)-1)
				neg := 1 + rng.Intn(1<<uint(dim)-1) // nonempty axis set
				var sh [3]int32
				for i := 0; i < dim; i++ {
					if neg&(1<<uint(i)) != 0 {
						o = o.WithCoord(i, -o.Len()*int32(1+rng.Intn(3)))
						r = r.WithCoord(i, 0)
						sh[i] = octant.Len(1)
					}
				}
				want := rippleOverlap(o, r, k, sh)
				got := SubtreeOldExtended(r, nil, []octant.Octant{o}, k)
				if !otest.Equal(got, want) {
					t.Fatalf("dim %d k %d: old-extended %d leaves != ripple %d leaves for o=%v r=%v",
						dim, k, len(got), len(want), o, r)
				}
				if len(want) > 1 {
					split++
				}
			}
		}
	}
	if split == 0 {
		t.Fatal("no negative-face outside octant split its r: the case is vacuous")
	}
}

// rippleOverlap returns Tk(o) ∩ r computed by the ripple on the unit root
// after translating o and r by sh, which must bring both inside it.
func rippleOverlap(o, r octant.Octant, k int, sh [3]int32) []octant.Octant {
	rt := r.Translated(sh[0], sh[1], sh[2])
	tk := Tk(octant.Root(int(o.Dim)), o.Translated(sh[0], sh[1], sh[2]), k)
	lo, hi := linear.OverlapRange(tk, rt)
	if hi == lo+1 && tk[lo].IsAncestorOrEqual(rt) {
		return []octant.Octant{r} // o does not split r
	}
	out := make([]octant.Octant, 0, hi-lo)
	for _, q := range tk[lo:hi] {
		out = append(out, q.Translated(-sh[0], -sh[1], -sh[2]))
	}
	return out
}

func TestSubtreeOldExtendedDistanceCost(t *testing.T) {
	// The motivation for Section IV: the old path's work grows with the
	// distance between o and r while the new path's does not.
	dim, k := 2, 2
	base := octant.Root(dim)
	r := base.Child(0) // level 1
	var prevOld int
	for _, shift := range []int32{0, 1, 3, 7} {
		h := octant.Len(8)
		o := octant.NewUnchecked(dim, 8, octant.Len(1)+shift*h, 0, 0) // to the right of r
		_, st := SubtreeOldExtendedStats(r, nil, []octant.Octant{o}, k)
		if st.HashQueries < prevOld {
			// Work should be non-decreasing with distance (allowing
			// equality due to level quantization).
			t.Logf("note: hash queries decreased from %d to %d at shift %d", prevOld, st.HashQueries, shift)
		}
		prevOld = st.HashQueries
	}
}
