package module

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/textutil"
	"repro/internal/workflow"
)

// SimMemo memoizes the EditDistance similarity of two interned attribute
// values under their symbol-ID pair. Levenshtein similarity depends only on
// the two strings, not on which attribute they came from, so one entry per ID
// pair serves labels, descriptions, scripts and parameter signatures alike.
// The vocabulary of a corpus is tiny compared to the module pairs its scans
// compare — a search workload of 21 million lookups touched 3 150 distinct
// label pairs — and symbol IDs live exactly as long as the process, so the
// similarity of two IDs is a fact worth keeping across scans: an engine owns
// one SimMemo beside its symbol table and hands it to every scan.
//
// A SimMemo belongs to exactly one symbol table. IDs from another table
// name other strings, so it must never be shared between engines or held in
// a package-level variable; callers only pass it IDs its table assigned.
//
// Reads take no lock: the table is open-addressed over atomic key/value
// words, a writer publishes the value before the key, and growth installs a
// rebuilt table through an atomic pointer while readers finish on the old
// one (a reader that misses a just-inserted pair recomputes it — Levenshtein
// similarity is pure, so every path returns the same bits). Writers are
// serialised by a mutex; they run once per distinct pair. Memory is
// proportional to the pairs seen and bounded by Cap: past it, insertion
// stops and new pairs are recomputed per lookup, correct but slow.
type SimMemo struct {
	tab atomic.Pointer[simMemoTable]
	mu  sync.Mutex   // serialises put and growth
	n   atomic.Int64 // entries in tab
}

// simMemoTable is one power-of-two generation of the open-addressed table,
// at most half full, so a probe always ends at an empty slot.
type simMemoTable struct {
	slots []simMemoSlot
	shift uint // 64 - log2(len(slots))
}

// simMemoSlot holds a packed ordered ID pair (never 0: both IDs are
// nonzero) and the similarity's float bits. key == 0 marks an empty slot.
type simMemoSlot struct{ key, val atomic.Uint64 }

const (
	// simMemoMinSlots is the first table's size: 16 KiB, allocated on the
	// first insert.
	simMemoMinSlots = 1 << 10
	// simMemoCap bounds the entries: at two words per slot and a table at
	// most half full, the memo tops out at 32 MiB.
	simMemoCap = 1 << 20
)

// NewSimMemo returns an empty memo for one symbol table.
func NewSimMemo() *SimMemo { return &SimMemo{} }

// Len returns the number of memoized ID pairs.
func (sm *SimMemo) Len() int { return int(sm.n.Load()) }

// Cap returns the entry bound past which insertion stops.
func (sm *SimMemo) Cap() int { return simMemoCap }

// slot returns k's home position in t (Fibonacci hashing).
func (t *simMemoTable) slot(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> t.shift
}

// get returns the memoized similarity of the packed pair k.
//
//wfsimvet:hotpath
func (sm *SimMemo) get(k uint64) (float64, bool) {
	t := sm.tab.Load()
	if t == nil {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.slot(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch s.key.Load() {
		case k:
			return math.Float64frombits(s.val.Load()), true
		case 0:
			return 0, false
		}
	}
}

// put memoizes v under the packed pair k unless the memo is at its cap.
func (sm *SimMemo) put(k uint64, v float64) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	n := int(sm.n.Load())
	if n >= simMemoCap {
		return
	}
	t := sm.tab.Load()
	if t == nil || 2*(n+1) > len(t.slots) {
		t = grownSimMemoTable(t)
		sm.tab.Store(t)
	}
	if t.insert(k, math.Float64bits(v)) {
		sm.n.Add(1)
	}
}

// insert stores (k, val) unless k is present (two scans computed the same
// new pair at once). The value is published before the key, so a reader
// that finds the key reads its value. Only the goroutine holding
// SimMemo.mu calls it.
func (t *simMemoTable) insert(k, val uint64) bool {
	mask := uint64(len(t.slots) - 1)
	for i := t.slot(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch s.key.Load() {
		case k:
			return false
		case 0:
			s.val.Store(val)
			s.key.Store(k)
			return true
		}
	}
}

// grownSimMemoTable returns a table twice the size of old (the minimum
// size for nil) holding old's entries.
func grownSimMemoTable(old *simMemoTable) *simMemoTable {
	size := simMemoMinSlots
	if old != nil {
		size = 2 * len(old.slots)
	}
	t := &simMemoTable{slots: make([]simMemoSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
	if old != nil {
		for i := range old.slots {
			if k := old.slots[i].key.Load(); k != 0 {
				t.insert(k, old.slots[i].val.Load())
			}
		}
	}
	return t
}

// editSimilarity returns the Levenshtein similarity of attribute attr of a
// and b, whose symbols must be nonzero and distinct (equal IDs prove
// identical values, decided by the caller without a lookup). The values are
// read — a parameter signature rendered — only on a miss. The key is the
// packed ordered ID pair; Levenshtein similarity is symmetric, so the order
// does not change the value. A nil memo compares every time.
//
//wfsimvet:hotpath
func (sm *SimMemo) editSimilarity(a, b *workflow.Module, attr workflow.Attr) float64 {
	if sm == nil {
		return textutil.LevenshteinSimilarity(a.Value(attr), b.Value(attr))
	}
	ida, idb := a.Syms[attr], b.Syms[attr]
	if ida > idb {
		ida, idb = idb, ida
	}
	k := uint64(ida)<<32 | uint64(idb)
	if v, ok := sm.get(k); ok {
		return v
	}
	v := textutil.LevenshteinSimilarity(a.Value(attr), b.Value(attr))
	sm.put(k, v)
	return v
}

// SimilarityMemo computes the scheme's module similarity in [0,1],
// memoizing EditDistance comparisons in memo (which may be nil). It reads
// the modules' symbols only, so a and b must belong to workflows one symbol
// table resolved — the measures see to that — and memo must belong to that
// table. IDs come from one append-only table, so equal IDs prove the values
// identical and distinct ones prove them different. Per attribute: zero on
// both sides is an empty value on both, absent from the comparison; zero on
// one side counts the attribute's weight with similarity 0 (an empty string
// is at edit distance its whole length from any other); equal nonzero IDs
// score 1 under every comparator; distinct nonzero IDs score 0 under Exact
// and go through the memo under EditDistance.
//
//wfsimvet:hotpath
func (s Scheme) SimilarityMemo(a, b *workflow.Module, memo *SimMemo) float64 {
	var sum, wsum float64
	for _, spec := range s.Specs {
		ida, idb := a.Syms[spec.Attr], b.Syms[spec.Attr]
		switch {
		case ida == 0 && idb == 0:
			continue // attribute absent from both: no evidence either way
		case ida == idb:
			sum += spec.Weight // identical values: similarity 1
		case ida != 0 && idb != 0 && spec.Cmp == EditDistance:
			sum += spec.Weight * memo.editSimilarity(a, b, spec.Attr)
		} // otherwise distinct values under Exact, or one empty: similarity 0
		wsum += spec.Weight
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}
