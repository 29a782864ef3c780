package balance

import (
	"math/rand"
	"testing"

	"repro/internal/octant"
	"repro/internal/otest"
)

// checkKeysMatch pins the packed-key subtree balance bit-for-bit against
// the struct path on the same input.
func checkKeysMatch(t *testing.T, root octant.Octant, in []octant.Octant, k int) {
	t.Helper()
	want := SubtreeNew(root, in, k)
	got := SubtreeNewKeys(octant.KeyOf(root), octant.AppendKeys(nil, in), k)
	if len(got) != len(want) {
		t.Fatalf("dim %d k %d: SubtreeNewKeys %d leaves, SubtreeNew %d",
			root.Dim, k, len(got), len(want))
	}
	for i := range got {
		if o := got[i].Octant(); o != want[i] {
			t.Fatalf("dim %d k %d: leaf %d: key path %v != struct path %v",
				root.Dim, k, i, o, want[i])
		}
	}
}

func TestSubtreeNewKeysMatchesStruct(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for _, k := range kRange(dim) {
			for trial := 0; trial < 15; trial++ {
				checkKeysMatch(t, root, otest.RandomComplete(rng, root, 5, 0.6), k)
			}
			for trial := 0; trial < 10; trial++ {
				complete := otest.RandomComplete(rng, root, 5, 0.6)
				checkKeysMatch(t, root, otest.RandomSubset(rng, complete, 0.2), k)
			}
		}
	}
}

func TestSubtreeNewKeysNonRootSubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dim := range []int{2, 3} {
		for _, k := range kRange(dim) {
			sub := octant.Root(dim).Child(3).Child(1)
			checkKeysMatch(t, sub, otest.RandomGraded(rng, sub, 8), k)
		}
	}
}

func TestSubtreeNewKeysTrivialInputs(t *testing.T) {
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		checkKeysMatch(t, root, nil, dim)
		checkKeysMatch(t, root, []octant.Octant{root}, dim)
	}
}
