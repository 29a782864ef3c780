package balance

import (
	"repro/internal/linear"
	"repro/internal/octant"
)

// SubtreeOldKeys is the old subtree balance algorithm (Figure 6) on
// packed Morton keys, the one body behind SubtreeOld and its variants:
// every octant iteratively adds its family and its coarse neighborhood
// N(o) to a hash table, each octant of outside (beyond root) spawns the
// auxiliary octants that carry its influence into root (Figure 4b), and
// the union of old and new in-root octants is sorted, linearized and
// completed.  S must be sorted; neither input is modified.
func SubtreeOldKeys(root octant.Key, S, outside []octant.Key, k int) ([]octant.Key, Stats) {
	var st Stats
	if len(outside) == 0 && (len(S) == 0 || len(S) == 1 && S[0] == root) {
		return []octant.Key{root}, st
	}
	dirs := octant.Directions(int(root.Dim()), k)
	snew := make(map[octant.Key]struct{}) // new octants inside root
	saux := make(map[octant.Key]struct{}) // auxiliary octants outside root
	work := make([]octant.Key, 0, len(S)+len(outside))
	work = append(work, S...)
	work = append(work, outside...)

	// consider inserts an in-root octant and, with aux set, tracks an
	// auxiliary octant outside the root.  Auxiliary octants are spawned
	// only while processing out-of-root octants: they bridge the gap from
	// each outside input toward the subtree, and once the ripple enters
	// the root it proceeds with in-root octants only (additions of in-root
	// octants that would fall outside the root carry no information for
	// the subtree).
	consider := func(s octant.Key, aux bool) {
		st.HashQueries++
		if root.IsAncestor(s) {
			if _, ok := snew[s]; ok {
				return
			}
			st.BinarySearch++
			if linear.ContainsKeys(S, s) {
				return
			}
			snew[s] = struct{}{}
			work = append(work, s)
			return
		}
		if !aux {
			return
		}
		if _, ok := saux[s]; ok {
			return
		}
		saux[s] = struct{}{}
		work = append(work, s)
	}

	rootLevel := root.Level()
	var fam [8]octant.Key
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if o.Level() <= rootLevel {
			continue
		}
		aux := !root.IsAncestor(o)
		p := o.Parent()
		for _, s := range fam[:octant.KeyChildren(p, &fam)] {
			consider(s, aux)
		}
		if o.Level() >= rootLevel+2 {
			for _, d := range dirs {
				consider(p.Neighbor(d), aux)
			}
		}
	}

	all := make([]octant.Key, 0, len(S)+len(snew))
	all = append(all, S...)
	for s := range snew {
		all = append(all, s)
	}
	st.SortedOctants = len(all)
	linear.SortKeys(all)
	return linear.CompleteKeys(root, linear.LinearizeKeys(all)), st
}

// SubtreeNewKeys is the new subtree balance algorithm (Figure 7) operating
// natively on packed Morton keys: Reduce, coarse-neighborhood closure with
// preclusion tagging, and completion all run in the key domain, so the hot
// loop is bit arithmetic plus two-word compares and no coordinate structs
// are materialized.  The output set is identical to SubtreeNew's on the
// unpacked octants — the differential suite pins this.
func SubtreeNewKeys(root octant.Key, S []octant.Key, k int) []octant.Key {
	if len(S) == 0 || (len(S) == 1 && S[0] == root) {
		return []octant.Key{root}
	}
	// Hoist the direction set: the struct path's CoarseNeighborhood
	// allocates it (and the neighbor slice) per octant.
	dirs := octant.Directions(int(root.Dim()), k)

	R := linear.ReduceKeys(S)
	rnew := make(map[octant.Key]struct{})
	prec := make(map[octant.Key]struct{})
	work := make([]octant.Key, len(R))
	copy(work, R)

	rootLevel := root.Level()
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if o.Level() < rootLevel+2 {
			continue // coarse neighborhood would leave the subtree
		}
		p := o.Parent()
		for _, d := range dirs {
			s0 := p.Neighbor(d)
			if !root.IsAncestor(s0) {
				continue
			}
			s := s0.Sibling(0) // equivalent to s0 under preclusion
			_, inNew := rnew[s]
			if !inNew {
				inR := false
				i, ok := linear.PrecludingMemberKeys(R, s)
				switch {
				case ok && R[i] == s:
					inR = true
				case ok && octant.KeyPrecluded(R[i], s):
					// An input octant is precluded by the new octant s.
					prec[R[i]] = struct{}{}
				}
				if !inR {
					rnew[s] = struct{}{}
					work = append(work, s)
				}
			}
			if octant.KeyPrecluded(s, o) {
				prec[s] = struct{}{}
			}
		}
	}

	final := make([]octant.Key, 0, len(R)+len(rnew))
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
	linear.SortKeys(final)
	// New octants added at different times can overlap; keep the finest,
	// whose completion regenerates the coarser ones.
	final = linear.LinearizeKeys(final)
	return linear.CompleteKeys(root, final)
}
