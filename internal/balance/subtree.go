package balance

import (
	"repro/internal/linear"
	"repro/internal/octant"
)

// Stats reports operation counts of a subtree balance run, used to verify
// the cost claims of Section III-B (the new algorithm performs roughly 3x
// fewer hash queries and sorts a set smaller by a factor of 2^d).
type Stats struct {
	HashQueries   int // hash-table membership tests
	BinarySearch  int // binary searches of the (reduced) input
	SortedOctants int // size of the set passed to the final sort
}

// SubtreeOld is the old subtree balance algorithm (Figure 6): every octant
// iteratively adds its family and its coarse neighborhood N(o) to a hash
// table; the union of old and new octants is then sorted and linearized.
//
// root is the root of the subtree; every element of the sorted linear array
// S must be a descendant of root (or equal to it).  The result is the
// coarsest k-balanced complete linear octree of root containing every
// element of S as a leaf.  S may be incomplete; gaps are filled as coarsely
// as balance allows.
func SubtreeOld(root octant.Octant, S []octant.Octant, k int) []octant.Octant {
	out, _ := SubtreeOldStats(root, S, k)
	return out
}

// SubtreeOldStats is SubtreeOld with operation counts.
func SubtreeOldStats(root octant.Octant, S []octant.Octant, k int) ([]octant.Octant, Stats) {
	return SubtreeOldExtendedStats(root, S, nil, k)
}

// SubtreeOldExtended is SubtreeOld with additional outside octants: octants
// lying beyond the subtree root whose balance influence must be propagated
// into the subtree.  This is how the old one-pass algorithm processes
// response octants from remote partitions and neighboring trees: the ripple
// constructs auxiliary octants bridging the gap from each outside octant to
// the root (Figure 4b), so its cost grows with that distance — the very
// behavior Section IV eliminates.  Outside octants do not appear in the
// output.
func SubtreeOldExtended(root octant.Octant, S, outside []octant.Octant, k int) []octant.Octant {
	out, _ := SubtreeOldExtendedStats(root, S, outside, k)
	return out
}

// SubtreeOldExtendedStats is SubtreeOldExtended with operation counts.
// It packs its inputs, runs SubtreeOldKeys and unpacks the result.
func SubtreeOldExtendedStats(root octant.Octant, S, outside []octant.Octant, k int) ([]octant.Octant, Stats) {
	out, st := SubtreeOldKeys(octant.KeyOf(root), octant.AppendKeys(nil, S), octant.AppendKeys(nil, outside), k)
	return octant.AppendOctants(make([]octant.Octant, 0, len(out)), out), st
}

// SubtreeNew is the new subtree balance algorithm (Figure 7): the input is
// first compressed by preclusion (Reduce), each octant then adds only the
// 0-sibling representatives of its coarse neighborhood, precluded octants
// are tagged and dropped, and the final reduced set is completed.
//
// It is a drop-in replacement for SubtreeOld with identical output.
func SubtreeNew(root octant.Octant, S []octant.Octant, k int) []octant.Octant {
	out, _ := SubtreeNewStats(root, S, k)
	return out
}

// SubtreeNewStats is SubtreeNew with operation counts.
func SubtreeNewStats(root octant.Octant, S []octant.Octant, k int) ([]octant.Octant, Stats) {
	var st Stats
	if len(S) == 0 || (len(S) == 1 && S[0] == root) {
		return []octant.Octant{root}, st
	}
	R := linear.Reduce(S)
	rnew := make(map[octant.Octant]struct{})
	prec := make(map[octant.Octant]struct{})
	work := make([]octant.Octant, len(R))
	copy(work, R)

	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if o.Level < root.Level+2 {
			continue // coarse neighborhood would leave the subtree
		}
		for _, s0 := range o.CoarseNeighborhood(k) {
			if !root.IsAncestor(s0) {
				continue
			}
			s := s0.Sibling(0) // equivalent to s0 under preclusion
			st.HashQueries++
			_, inNew := rnew[s]
			inR := false
			if !inNew {
				st.BinarySearch++
				i, ok := linear.PrecludingMember(R, s)
				switch {
				case ok && R[i] == s:
					inR = true
				case ok && octant.Precluded(R[i], s):
					// An input octant is precluded by the new octant s.
					prec[R[i]] = struct{}{}
				}
				if !inR {
					rnew[s] = struct{}{}
					work = append(work, s)
				}
			}
			if octant.Precluded(s, o) {
				prec[s] = struct{}{}
			}
		}
	}

	final := make([]octant.Octant, 0, len(R)+len(rnew))
	for _, o := range R {
		if _, p := prec[o]; !p {
			final = append(final, o)
		}
	}
	for o := range rnew {
		if _, p := prec[o]; !p {
			final = append(final, o)
		}
	}
	st.SortedOctants = len(final)
	linear.Sort(final)
	// New octants added at different times can overlap; keep the finest,
	// whose completion regenerates the coarser ones.
	final = linear.Linearize(final)
	return linear.Complete(root, final), st
}
