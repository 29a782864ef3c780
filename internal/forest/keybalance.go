package forest

import (
	"repro/internal/balance"
	"repro/internal/octant"
)

// This file is the Local balance on the resident packed keys: the whole
// subtree balance — the old or new algorithm, sort, completion, range
// clipping — runs on the chunk representation itself with no conversion
// at either end.

// localBalanceChunkKeys balances one rank's contiguous leaf range of a
// tree with the selected algorithm: the subtree spanned by the range is
// balanced and the result clipped back to the range (Section III).
func localBalanceChunkKeys(leaves []octant.Key, k int, algo Algo) []octant.Key {
	if len(leaves) <= 1 {
		return leaves
	}
	sub := octant.NearestCommonAncestorKeys(leaves[0], leaves[len(leaves)-1])
	var bal []octant.Key
	if algo == AlgoNew {
		bal = balance.SubtreeNewKeys(sub, leaves, k)
	} else {
		bal, _ = balance.SubtreeOldKeys(sub, leaves, nil, k)
	}
	return clipToRangeKeys(bal, leaves[0], leaves[len(leaves)-1])
}

// clipToRangeKeys keeps the keys lying within the curve range spanned by
// the original first and last leaves.
func clipToRangeKeys(keys []octant.Key, first, last octant.Key) []octant.Key {
	fd := first.FirstDescendant(octant.MaxLevel)
	ld := last.LastDescendant(octant.MaxLevel)
	out := keys[:0]
	for _, o := range keys {
		if octant.KeyCompare(o.FirstDescendant(octant.MaxLevel), fd) >= 0 &&
			octant.KeyCompare(o.LastDescendant(octant.MaxLevel), ld) <= 0 {
			out = append(out, o)
		}
	}
	return out
}

// BalanceChunksKeys applies the per-chunk Local balance (phase 1 of
// Balance, the paper's new algorithm) to independent leaf ranges with the
// given worker count; each chunks[i] is replaced by its balanced,
// range-clipped form.  Exported for the kernel micro-benchmarks; Balance
// runs the same code path over its local tree chunks.
func BalanceChunksKeys(chunks [][]octant.Key, k, workers int) {
	parallelFor(workers, len(chunks), func(i int) {
		chunks[i] = localBalanceChunkKeys(chunks[i], k, AlgoNew)
	})
}
