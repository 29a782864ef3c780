package forest

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/octant"
)

// randomChunks builds contiguous sorted leaf ranges by walking a refined
// tree, mirroring what Balance hands to the Local phase.
func randomChunks(rng *rand.Rand, dim, depth, chunks int) [][]octant.Octant {
	leaves := []octant.Octant{octant.Root(dim)}
	for d := 0; d < depth; d++ {
		var next []octant.Octant
		for _, o := range leaves {
			if rng.Intn(3) != 0 {
				for c := 0; c < octant.NumChildren(dim); c++ {
					next = append(next, o.Child(c))
				}
			} else {
				next = append(next, o)
			}
		}
		leaves = next
	}
	out := make([][]octant.Octant, 0, chunks)
	per := len(leaves)/chunks + 1
	for i := 0; i < len(leaves); i += per {
		end := i + per
		if end > len(leaves) {
			end = len(leaves)
		}
		out = append(out, append([]octant.Octant(nil), leaves[i:end]...))
	}
	return out
}

// TestBalanceChunksKeysOldMatchesNew pins the two Local balance
// algorithms on the resident keys to each other chunk for chunk: the old
// one (localBalanceChunkKeys with AlgoOld) against the new one as
// BalanceChunksKeys runs it, serially and on the worker pool.
func TestBalanceChunksKeysOldMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dim := range []int{2, 3} {
		for _, workers := range []int{1, 4} {
			for trial := 0; trial < 5; trial++ {
				chunks := randomChunks(rng, dim, 5, 7)
				want := make([][]octant.Key, len(chunks))
				got := make([][]octant.Key, len(chunks))
				for i := range chunks {
					want[i] = localBalanceChunkKeys(octant.AppendKeys(nil, chunks[i]), dim, AlgoOld)
					got[i] = octant.AppendKeys(nil, chunks[i])
				}
				BalanceChunksKeys(got, dim, workers)
				for i := range chunks {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("dim %d workers %d chunk %d: new %d leaves != old %d leaves",
							dim, workers, i, len(got[i]), len(want[i]))
					}
				}
			}
		}
	}
}

// TestKeyListWireByteIdentity pins the key-list codec to the octant-list
// codec byte for byte under both wire versions, including out-of-root
// octants, and round-trips the decode both ways.
func TestKeyListWireByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, dim := range []int{2, 3} {
		for _, codec := range []WireCodec{WireV0, WireV1} {
			for trial := 0; trial < 10; trial++ {
				var octs []octant.Octant
				for i := 0; i < 50; i++ {
					l := int8(1 + rng.Intn(6))
					h := octant.Len(l)
					o := octant.Octant{Level: l, Dim: int8(dim)}
					o.X = (int32(rng.Int63n(int64(octant.RootLen))) &^ (h - 1)) - octant.RootLen*int32(rng.Intn(2))
					o.Y = int32(rng.Int63n(int64(octant.RootLen))) &^ (h - 1)
					if dim == 3 {
						o.Z = int32(rng.Int63n(int64(octant.RootLen))) &^ (h - 1)
					}
					octs = append(octs, o)
				}
				keys := octant.AppendKeys(nil, octs)

				wantB := EncodeOctantList(nil, octs, codec)
				gotB := EncodeKeyList(nil, keys, codec)
				if !bytes.Equal(wantB, gotB) {
					t.Fatalf("dim %d codec %v: EncodeKeyList bytes differ from EncodeOctantList", dim, codec)
				}

				decK, offK, err := DecodeKeyList(wantB, codec)
				if err != nil {
					t.Fatalf("dim %d codec %v: DecodeKeyList: %v", dim, codec, err)
				}
				decO, offO, err := DecodeOctantList(gotB, codec)
				if err != nil {
					t.Fatalf("dim %d codec %v: DecodeOctantList: %v", dim, codec, err)
				}
				if offK != offO || len(decK) != len(decO) {
					t.Fatalf("dim %d codec %v: decode shapes differ", dim, codec)
				}
				for i := range decK {
					if decK[i].Octant() != decO[i] || decO[i] != octs[i] {
						t.Fatalf("dim %d codec %v: decode %d: %v vs %v vs input %v",
							dim, codec, i, decK[i].Octant(), decO[i], octs[i])
					}
				}
			}
			// Empty lists must agree too (v1 writes a default dim byte).
			if !bytes.Equal(EncodeOctantList(nil, nil, codec), EncodeKeyList(nil, nil, codec)) {
				t.Fatalf("codec %v: empty key list bytes differ", codec)
			}
		}
	}
}
