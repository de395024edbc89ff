package shard

import (
	"slices"
	"sort"

	"repro/internal/search"
)

// MergeTopK merges per-shard top-k result lists into the global top-k, in
// exactly the order one scan over the whole corpus would produce. Each
// shard's local top-k holds every workflow of that shard that can reach the
// global top-k, so sorting their union (at most shards × k results) in
// search.SortResults order and keeping k gives the global ranking; the order
// is total because shards own disjoint IDs.
func MergeTopK(lists [][]search.Result, k int) []search.Result {
	if k <= 0 {
		k = 10
	}
	out := slices.Concat(lists...)
	search.SortResults(out)
	return out[:min(k, len(out))]
}

// SortPairs applies the global duplicate-pair order — descending similarity,
// then ascending (A, B).
func SortPairs(pairs []search.Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Similarity != pairs[j].Similarity {
			return pairs[i].Similarity > pairs[j].Similarity
		}
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
}
