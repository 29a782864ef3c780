package balance

import (
	"math/rand"
	"testing"

	"repro/internal/linear"
	"repro/internal/octant"
	"repro/internal/otest"
)

func TestCarry3(t *testing.T) {
	cases := []struct{ a, b, c, want int64 }{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{1, 1, 0, 1},
		{1, 1, 1, 2},  // three ones carry
		{3, 3, 3, 6},  // 11+11+11 -> carries at both bits: 110
		{4, 2, 1, 4},  // disjoint bits: no carry, max wins
		{7, 7, 7, 14}, // 111*3 -> 1110
		{8, 8, 8, 16},
		{5, 5, 5, 10},
	}
	for _, c := range cases {
		if got := Carry3(c.a, c.b, c.c); got != c.want {
			t.Errorf("Carry3(%d,%d,%d) = %d, want %d", c.a, c.b, c.c, got, c.want)
		}
	}
	// Symmetry under permutation.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := rng.Int63n(1<<20), rng.Int63n(1<<20), rng.Int63n(1<<20)
		v := Carry3(a, b, c)
		if Carry3(b, c, a) != v || Carry3(c, a, b) != v || Carry3(b, a, c) != v {
			t.Fatalf("Carry3 not symmetric at (%d,%d,%d)", a, b, c)
		}
		// Bounds: max <= Carry3 <= sum.
		if v < a || v < b || v < c || v > a+b+c {
			t.Fatalf("Carry3(%d,%d,%d) = %d out of bounds", a, b, c, v)
		}
	}
}

func TestLambdaCrossSections(t *testing.T) {
	// Figure 11: if one component of δ̄ is zero, the 3D λ behaves like the
	// 2D λ of the remaining components for the same k.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		dx, dy := rng.Int63n(1<<24), rng.Int63n(1<<24)
		if got, want := Lambda(3, 1, [3]int64{dx, dy, 0}), Lambda(2, 1, [3]int64{dx, dy, 0}); got != want {
			t.Fatalf("3D k=1 cross-section: λ(%d,%d,0) = %d, want 2D value %d", dx, dy, got, want)
		}
		if got, want := Lambda(3, 2, [3]int64{dx, dy, 0}), Lambda(2, 2, [3]int64{dx, dy, 0}); got != want {
			t.Fatalf("3D k=2 cross-section: λ(%d,%d,0) = %d, want 2D value %d", dx, dy, got, want)
		}
		// And 2D k=1 with δy = 0 reduces to 1D.
		if got, want := Lambda(2, 1, [3]int64{dx, 0, 0}), Lambda(1, 1, [3]int64{dx, 0, 0}); got != want {
			t.Fatalf("2D k=1 cross-section: λ(%d,0) = %d, want 1D value %d", dx, got, want)
		}
	}
}

func TestLambdaSizeMonotoneOnParentGrid(t *testing.T) {
	// The layers of Figure 11 are contours of λ: on the parent grid (all
	// components multiples of the same 2^(l+1)), reducing any component
	// must not increase the resulting size ⌊log2 λ⌋.
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{2, 3} {
		for _, k := range kRange(dim) {
			for i := 0; i < 4000; i++ {
				sz := 1 + rng.Intn(8)       // size of o
				h := int64(1) << uint(sz+1) // parent grid spacing
				o := octant.Root(3).FirstDescendant(int8(octant.MaxLevel - sz))
				var d [3]int64
				for a := 0; a < dim; a++ {
					d[a] = h * rng.Int63n(64)
				}
				v := SizeOfA(o, Lambda(dim, k, d))
				a := rng.Intn(dim)
				d2 := d
				d2[a] = h * rng.Int63n(d[a]/h+1)
				if v2 := SizeOfA(o, Lambda(dim, k, d2)); v2 > v {
					t.Fatalf("dim %d k %d: size not monotone: %v (size %d) -> %v (size %d)",
						dim, k, d, v, d2, v2)
				}
			}
		}
	}
}

func TestClosestSameSizeDescendant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dim := range []int{2, 3} {
		for i := 0; i < 2000; i++ {
			r := otest.RandomOctant(rng, dim, 0, 6)
			o := otest.RandomOctant(rng, dim, int(r.Level), 10)
			ob := ClosestSameSizeDescendant(r, o)
			if ob.Level != o.Level {
				t.Fatal("ō has wrong size")
			}
			if !r.IsAncestorOrEqual(ob) {
				t.Fatalf("ō = %v not inside r = %v", ob, r)
			}
			if err := ob.Check(); err != nil {
				t.Fatalf("ō invalid: %v", err)
			}
			// No other same-size descendant may be closer (L-inf check
			// per axis: clamping is optimal coordinatewise).
			for a := 0; a < dim; a++ {
				lo := r.Coord(a)
				hi := lo + r.Len() - o.Len()
				c := o.Coord(a)
				want := c
				if want < lo {
					want = lo
				}
				if want > hi {
					want = hi
				}
				if ob.Coord(a) != want {
					t.Fatalf("axis %d: got %d, want %d", a, ob.Coord(a), want)
				}
			}
		}
	}
}

// oracleLeafContaining returns the leaf of the sorted linear octree that is
// an ancestor-or-equal of q, or false if q's region is subdivided.
func oracleLeafContaining(tree []octant.Octant, q octant.Octant) (octant.Octant, bool) {
	lo, hi := linear.OverlapRange(tree, q)
	if hi == lo+1 && tree[lo].IsAncestorOrEqual(q) {
		return tree[lo], true
	}
	return octant.Octant{}, false
}

// checkTableII verifies size(a) = ⌊log2 λ(δ̄)⌋ against the ripple oracle
// for a single (o, r) pair, returning false on mismatch.
func checkTableII(t *testing.T, root, o, r octant.Octant, k int, tk []octant.Octant) {
	t.Helper()
	a := ClosestBalancedAncestor(r, o, k)
	ob := ClosestSameSizeDescendant(r, o)
	leaf, ok := oracleLeafContaining(tk, ob)
	if !ok {
		t.Fatalf("oracle: ō = %v region subdivided in Tk(o)? should be impossible (no leaf finer than o)", ob)
	}
	want := leaf
	if leaf.IsAncestor(r) {
		want = r // the formula clamps a inside r
	}
	if a != want {
		t.Fatalf("Table II mismatch: o=%v r=%v k=%d: a=%v (size %d), oracle leaf=%v (size %d)",
			o, r, k, a, a.Size(), leaf, leaf.Size())
	}
}

func TestTableIIExhaustive2D(t *testing.T) {
	// Exhaustively check all source octants o at a fixed level against all
	// coarser disjoint regions r, for both 2D balance conditions.
	root := octant.Root(2)
	const oLevel, rMaxLevel = 4, 3
	for _, k := range []int{1, 2} {
		for oi := uint64(0); oi < 1<<(2*oLevel); oi++ {
			o := octant.FromMortonIndex(2, oLevel, oi)
			tk := Tk(root, o, k)
			for rl := 1; rl <= rMaxLevel; rl++ {
				for ri := uint64(0); ri < 1<<(2*rl); ri++ {
					r := octant.FromMortonIndex(2, rl, ri)
					if r.Overlaps(o) {
						continue
					}
					checkTableII(t, root, o, r, k, tk)
				}
			}
		}
	}
}

func TestTableIIRandom3D(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	root := octant.Root(3)
	for _, k := range []int{1, 2, 3} {
		for trial := 0; trial < 120; trial++ {
			o := otest.RandomOctant(rng, 3, 3, 5)
			tk := Tk(root, o, k)
			for i := 0; i < 40; i++ {
				r := otest.RandomOctant(rng, 3, 1, int(o.Level)-1)
				if r.Overlaps(o) {
					continue
				}
				checkTableII(t, root, o, r, k, tk)
			}
		}
	}
}

func TestSeedsReconstruction2DExhaustive(t *testing.T) {
	// The headline claim of Section IV (Figure 9): balancing the seed
	// octants inside r reproduces Tk(o) ∩ r exactly.
	root := octant.Root(2)
	const oLevel = 4
	for _, k := range []int{1, 2} {
		for oi := uint64(0); oi < 1<<(2*oLevel); oi++ {
			o := octant.FromMortonIndex(2, oLevel, oi)
			tk := Tk(root, o, k)
			for rl := 1; rl <= 3; rl++ {
				for ri := uint64(0); ri < 1<<(2*rl); ri++ {
					r := octant.FromMortonIndex(2, rl, ri)
					if r.Overlaps(o) {
						continue
					}
					checkSeeds(t, o, r, k, tk)
				}
			}
		}
	}
}

func checkSeeds(t *testing.T, o, r octant.Octant, k int, tk []octant.Octant) {
	t.Helper()
	// Expected: leaves of Tk(o) inside r, or {r} if a coarser leaf covers r.
	var want []octant.Octant
	lo, hi := linear.OverlapRange(tk, r)
	if hi == lo+1 && tk[lo].IsAncestorOrEqual(r) {
		want = []octant.Octant{r}
	} else {
		want = append(want, tk[lo:hi]...)
	}
	got := TkOverlap(o, r, k)
	if !otest.Equal(got, want) {
		seeds, splits := Seeds(o, r, k)
		t.Fatalf("seed reconstruction failed: o=%v r=%v k=%d\nseeds=%v splits=%v\ngot  %d leaves: %v\nwant %d leaves: %v",
			o, r, k, seeds, splits, len(got), got, len(want), want)
	}
}

func TestSeedsReconstruction3DRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	root := octant.Root(3)
	for _, k := range []int{1, 2, 3} {
		for trial := 0; trial < 80; trial++ {
			o := otest.RandomOctant(rng, 3, 3, 5)
			tk := Tk(root, o, k)
			for i := 0; i < 25; i++ {
				r := otest.RandomOctant(rng, 3, 1, int(o.Level)-1)
				if r.Overlaps(o) {
					continue
				}
				checkSeeds(t, o, r, k, tk)
			}
		}
	}
}

func TestSeedsCount(t *testing.T) {
	// |S| is O(1): at most 1 + |N(a)| candidates; the paper's bound is
	// 3^(d-1).  Check that we never exceed the full coarse-neighborhood
	// bound and report the maximum observed.
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{2, 3} {
		maxSeen := 0
		bound := 1 + len(octant.Directions(dim, dim))
		for trial := 0; trial < 4000; trial++ {
			o := otest.RandomOctant(rng, dim, 4, 8)
			r := otest.RandomOctant(rng, dim, 1, int(o.Level)-1)
			if r.Overlaps(o) {
				continue
			}
			seeds, _ := Seeds(o, r, dim)
			if len(seeds) > maxSeen {
				maxSeen = len(seeds)
			}
		}
		if maxSeen > bound {
			t.Errorf("dim %d: %d seeds exceeds bound %d", dim, maxSeen, bound)
		}
		t.Logf("dim %d: max seeds observed %d (paper bound 3^(d-1) = %d)", dim, maxSeen, pow(3, dim-1))
	}
}

func pow(b, e int) int {
	v := 1
	for i := 0; i < e; i++ {
		v *= b
	}
	return v
}

func TestSeedsNoSplitCases(t *testing.T) {
	root := octant.Root(2)
	o := root.Child(0).Child(0).Child(0) // level 3 in the corner
	// A far-away coarse octant is not split.
	far := root.Child(3)
	if _, splits := Seeds(o, far, 1); splits {
		// Depending on distance this may legitimately split; verify
		// against the oracle instead of asserting.
		tk := Tk(root, o, 1)
		if _, ok := oracleLeafContaining(tk, far); ok {
			t.Error("Seeds reported split but oracle covers r with one leaf")
		}
	}
	// A same-size octant is never split.
	same := root.Child(1).Child(0).Child(0)
	if _, splits := Seeds(o, same, 2); splits {
		t.Error("same-size octant reported as split")
	}
}

func TestTableIIDeepLevels(t *testing.T) {
	// Deep octants exercise the λ arithmetic with large coordinates
	// (δ̄ up to ~2^31, summed in int64).  The oracle Tk(o) stays small:
	// its rings coarsen geometrically away from o.
	rng := rand.New(rand.NewSource(21))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for _, k := range kRange(dim) {
			for trial := 0; trial < 8; trial++ {
				o := otest.RandomOctant(rng, dim, 15, 20)
				tk := Tk(root, o, k)
				for i := 0; i < 15; i++ {
					r := otest.RandomOctant(rng, dim, 2, 6)
					if r.Overlaps(o) {
						continue
					}
					checkTableII(t, root, o, r, k, tk)
					checkSeeds(t, o, r, k, tk)
				}
			}
		}
	}
}

func TestSeedsAdjacentPairs(t *testing.T) {
	// The δ̄ = 0 edge case: o directly adjacent to r (their parents may
	// coincide or abut), for every contact codimension.
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for _, k := range kRange(dim) {
			// r is a level-1 child; o is a deep octant hugging each of
			// r's faces/corners from outside.
			r := root.Child(0)
			h := octant.Len(4)
			candidates := []octant.Octant{
				octant.NewUnchecked(dim, 4, octant.Len(1), 0, 0),                           // face contact at corner
				octant.NewUnchecked(dim, 4, octant.Len(1), octant.Len(1)-h, 0),             // face contact at far edge
				octant.NewUnchecked(dim, 4, octant.Len(1), octant.Len(1), 0),               // corner/edge contact
				octant.NewUnchecked(dim, 4, octant.Len(1), octant.Len(1)-h, octant.Len(1)), // 3D mixtures
			}
			tkCache := map[octant.Octant][]octant.Octant{}
			for _, o := range candidates {
				if dim == 2 && o.Z != 0 {
					continue
				}
				if !o.InsideRoot() || o.Overlaps(r) {
					continue
				}
				tk, ok := tkCache[o]
				if !ok {
					tk = Tk(root, o, k)
					tkCache[o] = tk
				}
				checkTableII(t, root, o, r, k, tk)
				checkSeeds(t, o, r, k, tk)
			}
		}
	}
}

// TestCarry3Identities pins the algebraic identities of equation (1) that
// the Table II rows rely on: dropping one operand degenerates Carry3 to
// max (a+b-(a|b) = a&b <= max), a lone operand passes through, and equal
// powers of two carry to the next bit.
func TestCarry3Identities(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		a, b := rng.Int63n(1<<40), rng.Int63n(1<<40)
		if got := Carry3(a, b, 0); got != max2(a, b) {
			t.Fatalf("Carry3(%d,%d,0) = %d, want max = %d", a, b, got, max2(a, b))
		}
		if got := Carry3(a, 0, 0); got != a {
			t.Fatalf("Carry3(%d,0,0) = %d", a, got)
		}
	}
	for n := uint(0); n < 62; n++ {
		p := int64(1) << n
		if got := Carry3(p, p, p); got != 2*p {
			t.Fatalf("Carry3(2^%d x3) = %d, want %d", n, got, 2*p)
		}
	}
	// The raw max-form value is NOT monotone in its arguments (only its
	// most significant bit is meaningful); what must be monotone is the
	// extracted size ⌊log2⌋.
	log2 := func(v int64) int {
		n := -1
		for v > 0 {
			v >>= 1
			n++
		}
		return n
	}
	for i := 0; i < 2000; i++ {
		a, b, c := 1+rng.Int63n(1<<30), rng.Int63n(1<<30), rng.Int63n(1<<30)
		if log2(Carry3(a+1, b, c)) < log2(Carry3(a, b, c)) {
			t.Fatalf("Carry3 size not monotone at (%d,%d,%d)", a, b, c)
		}
	}
}

// TestLambdaTableII spells out Table II row by row with concrete δ̄
// vectors, one block per boundary-object codimension of the contact
// between o's region and r: face (one nonzero component), edge (two),
// corner (three).  h is a stand-in parent-grid spacing.
func TestLambdaTableII(t *testing.T) {
	const h = 1 << 10
	cases := []struct {
		name   string
		dim, k int
		dbar   [3]int64
		want   int64
	}{
		// δ̄ = 0: o and r in contact through their parents; λ = 0 means a
		// keeps o's own size regardless of dim and k.
		{"touch-1d", 1, 1, [3]int64{0, 0, 0}, 0},
		{"touch-2d-corner", 2, 1, [3]int64{0, 0, 0}, 0},
		{"touch-3d-face", 3, 3, [3]int64{0, 0, 0}, 0},

		// Codimension 1 (face / 1D distance): every formula degenerates to
		// the single component.
		{"face-1d", 1, 1, [3]int64{5 * h, 0, 0}, 5 * h},
		{"face-2d-k1", 2, 1, [3]int64{5 * h, 0, 0}, 5 * h},
		{"face-2d-k2", 2, 2, [3]int64{5 * h, 0, 0}, 5 * h},
		{"face-3d-k1", 3, 1, [3]int64{5 * h, 0, 0}, 5 * h}, // Carry3(0, 5h, 5h) = 5h
		{"face-3d-k2", 3, 2, [3]int64{5 * h, 0, 0}, 5 * h},
		{"face-3d-k3", 3, 3, [3]int64{5 * h, 0, 0}, 5 * h},

		// Codimension 2 (edge): corner balance takes the max, edge/corner
		// conditions add or carry.
		{"edge-2d-k1", 2, 1, [3]int64{3 * h, 4 * h, 0}, 7 * h},
		{"edge-2d-k2", 2, 2, [3]int64{3 * h, 4 * h, 0}, 4 * h},
		{"edge-3d-k1", 3, 1, [3]int64{3 * h, 4 * h, 0}, 7 * h}, // cross-section = 2D k=1
		{"edge-3d-k2", 3, 2, [3]int64{3 * h, 4 * h, 0}, 4 * h}, // Carry3(3h,4h,0) = max
		{"edge-3d-k3", 3, 3, [3]int64{3 * h, 4 * h, 0}, 4 * h},

		// Codimension 3 (corner, 3D only).
		{"corner-3d-k1", 3, 1, [3]int64{h, h, h}, 4 * h}, // Carry3(2h,2h,2h) = 4h
		{"corner-3d-k2", 3, 2, [3]int64{h, h, h}, 2 * h}, // Carry3(h,h,h) = 2h
		{"corner-3d-k3", 3, 3, [3]int64{h, h, h}, h},
		{"corner-3d-k1-mixed", 3, 1, [3]int64{h, 2 * h, 4 * h}, 7 * h}, // Carry3(6h,5h,3h): sum-term 14h-7h wins
		{"corner-3d-k2-mixed", 3, 2, [3]int64{h, 2 * h, 4 * h}, 4 * h}, // disjoint bits: max
		{"corner-3d-k3-mixed", 3, 3, [3]int64{h, 2 * h, 4 * h}, 4 * h},
	}
	for _, c := range cases {
		if got := Lambda(c.dim, c.k, c.dbar); got != c.want {
			t.Errorf("%s: λ_%d^%d(%v) = %d, want %d", c.name, c.dim, c.k, c.dbar, got, c.want)
		}
	}
}

// TestLambdaNoOverflow feeds the deepest parent-grid distances the integer
// lattice admits (δ̄ components up to 2^31) through every formula; the
// int64 arithmetic must stay exact.
func TestLambdaNoOverflow(t *testing.T) {
	big := int64(1) << 31
	if got := Lambda(3, 1, [3]int64{big, big, big}); got != 1<<33 {
		t.Errorf("λ_3^1(2^31 x3) = %d, want 2^33", got)
	}
	if got := Lambda(3, 2, [3]int64{big, big, big}); got != 1<<32 {
		t.Errorf("λ_3^2(2^31 x3) = %d, want 2^32", got)
	}
	if got := Lambda(3, 3, [3]int64{big, big, big}); got != big {
		t.Errorf("λ_3^3(2^31 x3) = %d, want 2^31", got)
	}
	if got := Lambda(2, 1, [3]int64{big, big, 0}); got != 1<<32 {
		t.Errorf("λ_2^1(2^31 x2) = %d, want 2^32", got)
	}
}

// TestSizeOfAEdges checks the ⌊log2 λ⌋ extraction at its boundary values,
// for both the deepest (size 0) and the coarsest (size MaxLevel) source
// octant.
func TestSizeOfAEdges(t *testing.T) {
	deep := octant.Root(2).FirstDescendant(octant.MaxLevel) // size 0
	coarse := octant.Root(3)                                // size MaxLevel
	cases := []struct {
		o      octant.Octant
		lambda int64
		want   int
	}{
		{deep, 0, 0},                 // λ = 0 keeps o's size
		{coarse, 0, octant.MaxLevel}, // ... whatever it is
		{deep, 1, 0},
		{deep, 2, 1},
		{deep, 3, 1},
		{deep, 4, 2},
		{deep, 1 << 33, 33},
		{deep, 1<<33 + 1<<10, 33},
	}
	for _, c := range cases {
		if got := SizeOfA(c.o, c.lambda); got != c.want {
			t.Errorf("SizeOfA(size %d, λ=%d) = %d, want %d", c.o.Size(), c.lambda, got, c.want)
		}
	}
}

// TestTableIIMaxLevelEdges runs the oracle comparison with o at the very
// bottom of the refinement range (level MaxLevel), where δ̄ granularity is
// the finest possible, and with o just one level below r, where Tk(o) is
// shallowest.
func TestTableIIMaxLevelEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for _, k := range kRange(dim) {
			// o at MaxLevel, r coarse.
			for trial := 0; trial < 4; trial++ {
				o := otest.RandomOctant(rng, dim, octant.MaxLevel, octant.MaxLevel)
				tk := Tk(root, o, k)
				for i := 0; i < 10; i++ {
					r := otest.RandomOctant(rng, dim, 1, 4)
					if r.Overlaps(o) {
						continue
					}
					checkTableII(t, root, o, r, k, tk)
					checkSeeds(t, o, r, k, tk)
				}
			}
			// o exactly one level finer than r: a must come out as r itself
			// or one of its children; the formula's clamp path.
			for trial := 0; trial < 40; trial++ {
				r := otest.RandomOctant(rng, dim, 1, 3)
				o := otest.RandomOctant(rng, dim, int(r.Level)+1, int(r.Level)+1)
				if r.Overlaps(o) {
					continue
				}
				tk := Tk(root, o, k)
				checkTableII(t, root, o, r, k, tk)
			}
		}
	}
}
