package shard

import (
	"container/heap"
	"sort"

	"repro/internal/search"
)

// resultBetter is the global result order: descending similarity, ties
// broken by ascending ID — identical to search.SortResults, so a merged
// scatter-gather ranking ties exactly like one scan over the whole corpus.
func resultBetter(a, b search.Result) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	return a.ID < b.ID
}

// mergeHeap is a k-way merge frontier over per-shard result lists, each
// already sorted by resultBetter (search.SortResults order).
type mergeHeap struct {
	heads []mergeHead
}

type mergeHead struct {
	list []search.Result
	pos  int
}

func (h *mergeHeap) Len() int { return len(h.heads) }
func (h *mergeHeap) Less(i, j int) bool {
	return resultBetter(h.heads[i].list[h.heads[i].pos], h.heads[j].list[h.heads[j].pos])
}
func (h *mergeHeap) Swap(i, j int) { h.heads[i], h.heads[j] = h.heads[j], h.heads[i] }
func (h *mergeHeap) Push(x any)    { h.heads = append(h.heads, x.(mergeHead)) }
func (h *mergeHeap) Pop() any {
	old := h.heads
	n := len(old)
	x := old[n-1]
	h.heads = old[:n-1]
	return x
}

// MergeTopK merges per-shard top-k result lists (each sorted in
// search.SortResults order) into the global top-k, in exactly the order one
// scan over the whole corpus would produce: each shard's local top-k contains every workflow that
// can appear in the global top-k from that shard, so the k-way merge of the
// heads is the global ranking.
func MergeTopK(lists [][]search.Result, k int) []search.Result {
	if k <= 0 {
		k = 10
	}
	h := &mergeHeap{heads: make([]mergeHead, 0, len(lists))}
	for _, list := range lists {
		if len(list) > 0 {
			h.heads = append(h.heads, mergeHead{list: list})
		}
	}
	heap.Init(h)
	out := make([]search.Result, 0, k)
	for h.Len() > 0 && len(out) < k {
		head := h.heads[0]
		out = append(out, head.list[head.pos])
		if head.pos+1 < len(head.list) {
			h.heads[0].pos++
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out
}

// SortPairs applies the global duplicate-pair order — descending similarity,
// then ascending (A, B) — to a merged block union.
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
