package octant

import (
	"math/rand"
	"testing"
)

// TestKeyInsideRootAgrees pins the two-word InsideRoot test to the struct
// predicate across the lattice, which includes out-of-root translations on
// every axis and the all-ones LastDescendant corners.
func TestKeyInsideRootAgrees(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, o := range keyLattice(dim) {
			if got, want := KeyOf(o).InsideRoot(), o.InsideRoot(); got != want {
				t.Fatalf("dim %d: Key.InsideRoot(%v) = %v, struct says %v", dim, o, got, want)
			}
		}
	}
}

// TestKeyRootCellAgrees pins RootCell and RootImage to the struct
// coordinates: every lattice octant within one root length of the root
// lands in the grid cell its coordinates name, and its root image is the
// octant translated by whole root lengths into the root.
func TestKeyRootCellAgrees(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, o := range keyLattice(dim) {
			cell, pow := 0, 1
			img := o
			for a := 0; a < dim; a++ {
				off := 0
				switch c := o.Coord(a); {
				case c < 0:
					off = -1
				case c >= RootLen:
					off = 1
				}
				cell += (off + 1) * pow
				pow *= 3
				img = img.WithCoord(a, o.Coord(a)-int32(off)*RootLen)
			}
			k := KeyOf(o)
			if got := k.RootCell(); got != cell {
				t.Fatalf("dim %d: RootCell(%v) = %d, want %d", dim, o, got, cell)
			}
			if got := k.RootImage(); got != KeyOf(img) {
				t.Fatalf("dim %d: RootImage(%v) = %v, want %v", dim, o, got.Octant(), img)
			}
		}
	}
}

// TestKeyChildrenAgrees pins the batch child fan to the scalar Child.
func TestKeyChildrenAgrees(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, o := range keyLattice(dim) {
			if o.Level >= MaxLevel {
				continue
			}
			k := KeyOf(o)
			var kids [8]Key
			n := KeyChildren(k, &kids)
			if n != NumChildren(dim) {
				t.Fatalf("dim %d: KeyChildren count %d", dim, n)
			}
			for i := 0; i < n; i++ {
				if kids[i] != k.Child(i) {
					t.Fatalf("dim %d: KeyChildren(%v)[%d] = %v, want %v",
						dim, o, i, kids[i].Octant(), k.Child(i).Octant())
				}
			}
		}
	}
}

// TestKeyNeighborsAgrees pins the batch direction fan to the scalar
// Neighbor over the full 3^d-1 insulation fan, including carry-propagating
// positions (all-ones coordinates) and out-of-root starts.
func TestKeyNeighborsAgrees(t *testing.T) {
	for _, dim := range []int{2, 3} {
		dirs := Directions(dim, dim)
		out := make([]Key, len(dirs))
		for _, o := range keyLattice(dim) {
			k := KeyOf(o)
			KeyNeighbors(k, dirs, out)
			for di, d := range dirs {
				if want := k.Neighbor(d); out[di] != want {
					t.Fatalf("dim %d: KeyNeighbors(%v)[%v] = %v, want %v",
						dim, o, d, out[di].Octant(), want.Octant())
				}
			}
		}
	}
}

// TestAppendKeySuccessorsAgrees pins the hoisted successor run against the
// scalar Successor chain, across levels whose runs cross high-bit carries.
func TestAppendKeySuccessorsAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{2, 3} {
		for _, l := range []int8{1, 2, 5, 29, 30} {
			// Addressable window of Morton indices at this level (capped to
			// what FromMortonIndex's uint64 index can reach at 3D level 29+).
			total := int64(1) << min(uint(dim)*uint(l), 62)
			for trial := 0; trial < 12; trial++ {
				n := 1 + rng.Intn(40)
				if int64(n) > total {
					n = int(total)
				}
				start := rng.Int63n(total - int64(n) + 1)
				if trial >= 8 {
					// Adversarial: start just below a power of two, so the
					// run's carry ripples through many interleave bits.
					start = (int64(1) << (1 + rng.Intn(int(uint(dim)*uint(l))))) - 2
					if start < 0 || start > total-int64(n) {
						continue
					}
				}
				first := KeyOf(FromMortonIndex(dim, int(l), uint64(start)))
				got := AppendKeySuccessors(nil, first, n)
				if len(got) != n {
					t.Fatalf("dim %d l %d: run length %d, want %d", dim, l, len(got), n)
				}
				want := first
				for i := 0; i < n; i++ {
					if got[i] != want {
						t.Fatalf("dim %d l %d: run[%d] = %v, want %v",
							dim, l, i, got[i].Octant(), want.Octant())
					}
					if i+1 < n {
						want = want.Successor()
					}
				}
			}
		}
	}
}

// TestAppendKeySuccessorsPanicsPastEnd mirrors the scalar Successor guard.
func TestAppendKeySuccessorsPanicsPastEnd(t *testing.T) {
	last := KeyOf(Root(2).LastDescendant(1))
	defer func() {
		if recover() == nil {
			t.Fatal("AppendKeySuccessors past end of level did not panic")
		}
	}()
	AppendKeySuccessors(nil, last, 2)
}

// TestKeysAreFamilyAgrees pins the key family test to IsFamily on complete
// families, rotated families, truncated families and random non-families.
func TestKeysAreFamilyAgrees(t *testing.T) {
	check := func(t *testing.T, dim int, octs []Octant) {
		t.Helper()
		keys := AppendKeys(nil, octs)
		if got, want := KeysAreFamily(keys), IsFamily(octs); got != want {
			t.Fatalf("dim %d: KeysAreFamily(%v) = %v, IsFamily = %v", dim, octs, got, want)
		}
	}
	for _, dim := range []int{2, 3} {
		nc := NumChildren(dim)
		for _, o := range keyLattice(dim) {
			if o.Level >= MaxLevel {
				continue
			}
			fam := make([]Octant, nc)
			for i := range fam {
				fam[i] = o.Child(i)
			}
			check(t, dim, fam)
			// Rotated: right siblings first — must be rejected.
			rot := append(append([]Octant(nil), fam[1:]...), fam[0])
			check(t, dim, rot)
			// Truncated and overlong runs.
			check(t, dim, fam[:nc-1])
			check(t, dim, append(append([]Octant(nil), fam...), fam[nc-1]))
			// One member replaced by its own first child.
			mut := append([]Octant(nil), fam...)
			if mut[1].Level < MaxLevel {
				mut[1] = mut[1].Child(0)
				check(t, dim, mut)
			}
		}
		check(t, dim, nil)
		check(t, dim, []Octant{Root(dim)})
	}
}
