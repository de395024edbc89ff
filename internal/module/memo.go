package module

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/workflow"
)

// LabelSim memoizes the EditDistance similarity of two interned attribute
// values (module labels, types) under their symbol-ID pair. The vocabulary of
// a corpus is tiny compared to the module pairs its scans compare — a search
// workload of 21 million lookups touched 3 150 distinct pairs — and symbol
// IDs live exactly as long as the process, so the similarity of two IDs is a
// fact worth keeping across scans: an engine owns one LabelSim beside its
// symbol table and hands it to every scan.
//
// A LabelSim belongs to exactly one symbol table. IDs from another table
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
type LabelSim struct {
	tab atomic.Pointer[labelSimTable]
	mu  sync.Mutex   // serialises put and growth
	n   atomic.Int64 // entries in tab
}

// labelSimTable is one power-of-two generation of the open-addressed table,
// at most half full, so a probe always ends at an empty slot.
type labelSimTable struct {
	slots []labelSimSlot
	shift uint // 64 - log2(len(slots))
}

// labelSimSlot holds a packed ordered ID pair (never 0: both IDs are
// nonzero) and the similarity's float bits. key == 0 marks an empty slot.
type labelSimSlot struct{ key, val atomic.Uint64 }

// labelSimMinSlots is the first table's size: 16 KiB, allocated on the
// first insert.
const labelSimMinSlots = 1 << 10

// NewLabelSim returns an empty memo for one symbol table.
func NewLabelSim() *LabelSim { return &LabelSim{} }

// Len returns the number of memoized ID pairs.
func (ls *LabelSim) Len() int { return int(ls.n.Load()) }

// Cap returns the entry bound past which insertion stops.
func (ls *LabelSim) Cap() int { return simMemoCap }

// slot returns k's home position in t (Fibonacci hashing).
func (t *labelSimTable) slot(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> t.shift
}

// get returns the memoized similarity of the packed pair k.
//
//wfsimvet:hotpath
func (ls *LabelSim) get(k uint64) (float64, bool) {
	t := ls.tab.Load()
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
func (ls *LabelSim) put(k uint64, v float64) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	n := int(ls.n.Load())
	if n >= simMemoCap {
		return
	}
	t := ls.tab.Load()
	if t == nil || 2*(n+1) > len(t.slots) {
		t = grownLabelSimTable(t)
		ls.tab.Store(t)
	}
	if t.insert(k, math.Float64bits(v)) {
		ls.n.Add(1)
	}
}

// insert stores (k, val) unless k is present (two scans computed the same
// new pair at once). The value is published before the key, so a reader
// that finds the key reads its value. Only the goroutine holding
// LabelSim.mu calls it.
func (t *labelSimTable) insert(k, val uint64) bool {
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

// grownLabelSimTable returns a table twice the size of old (the minimum
// size for nil) holding old's entries.
func grownLabelSimTable(old *labelSimTable) *labelSimTable {
	size := labelSimMinSlots
	if old != nil {
		size = 2 * len(old.slots)
	}
	t := &labelSimTable{slots: make([]labelSimSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
	if old != nil {
		for i := range old.slots {
			if k := old.slots[i].key.Load(); k != 0 {
				t.insert(k, old.slots[i].val.Load())
			}
		}
	}
	return t
}

// SimMemo memoizes EditDistance comparator results for a scan. It has two
// halves with two lifetimes:
//
//   - Interned attributes (labels, types) are memoized by symbol-ID pair in
//     a LabelSim. An engine passes the one LabelSim of its symbol table
//     (NewSimMemoWith), so those entries outlive the scan; NewSimMemo makes
//     a private one that dies with the SimMemo. Either way every ID the memo
//     sees must come from one symbol table.
//   - Everything else (descriptions, scripts, parameters, and labels of
//     workflows no table resolved) is memoized by string pair for the
//     SimMemo's own lifetime — one scan — behind sharded locks, with a hard
//     entry cap and no eviction (insertion stops when full).
//
// Levenshtein similarity is symmetric and pure, so memoized scans return
// bit-identical scores. Only EditDistance results are memoized —
// Exact/ExactFold are cheaper than the lookup. A SimMemo is safe for
// concurrent use.
type SimMemo struct {
	ids    *LabelSim
	shards [simMemoShards]simMemoShard
}

const (
	simMemoShards = 32
	// simMemoCap bounds the entries of each half. At two words per slot and
	// a table at most half full, the ID-keyed half tops out at 32 MiB; the
	// string-keyed half at two strings and a float per entry stays under
	// ~100 MB for a runaway vocabulary instead of growing unbounded.
	simMemoCap = 1 << 20
)

type simMemoShard struct {
	mu sync.RWMutex
	m  map[simMemoKey]float64
}

type simMemoKey struct{ a, b string }

// NewSimMemo returns an empty scan-scoped memo with a private ID-keyed half.
func NewSimMemo() *SimMemo { return NewSimMemoWith(nil) }

// NewSimMemoWith returns an empty scan-scoped memo whose ID-keyed half is
// ids — the LabelSim of the symbol table that resolved every workflow the
// scan will compare. A nil ids gets a private one.
func NewSimMemoWith(ids *LabelSim) *SimMemo {
	if ids == nil {
		ids = NewLabelSim()
	}
	return &SimMemo{ids: ids}
}

// editSimilarity returns the memoized Levenshtein similarity of (a, b).
func (sm *SimMemo) editSimilarity(a, b string) float64 {
	if a > b {
		a, b = b, a // symmetric: canonicalize key order
	}
	k := simMemoKey{a, b}
	sh := &sm.shards[memoHash(a, b)%simMemoShards]
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	v = EditDistance.compare(a, b)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[simMemoKey]float64)
	}
	if len(sh.m) < simMemoCap/simMemoShards {
		sh.m[k] = v
	}
	sh.mu.Unlock()
	return v
}

// editSimilarityID returns the memoized Levenshtein similarity of two
// interned attribute values. Both IDs must be nonzero and distinct (equal
// IDs prove identical strings, decided by the caller without a lookup).
// The key is the packed ordered ID pair; Levenshtein similarity is
// symmetric, so canonicalizing by ID instead of string order returns the
// same value as the string-keyed memo.
//
//wfsimvet:hotpath
func (sm *SimMemo) editSimilarityID(ida, idb uint32, a, b string) float64 {
	if ida > idb {
		ida, idb = idb, ida
		a, b = b, a
	}
	k := uint64(ida)<<32 | uint64(idb)
	if v, ok := sm.ids.get(k); ok {
		return v
	}
	v := EditDistance.compare(a, b)
	sm.ids.put(k, v)
	return v
}

// Len returns the number of memoized pairs (for tests and stats),
// counting string-keyed and symbol-keyed entries.
func (sm *SimMemo) Len() int {
	n := sm.ids.Len()
	for i := range sm.shards {
		sh := &sm.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// memoHash is FNV-1a over both strings, matching the canonicalized order.
func memoHash(a, b string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= prime64
	}
	h ^= 0xff // separator so ("ab","c") and ("a","bc") differ
	h *= prime64
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// compareMemo is Comparator.compare routed through a memo for the
// comparators where memoization pays; a nil memo degrades to the plain
// comparison.
func (c Comparator) compareMemo(a, b string, memo *SimMemo) float64 {
	if memo != nil && c == EditDistance {
		return memo.editSimilarity(a, b)
	}
	return c.compare(a, b)
}

// SimilarityMemo computes the scheme's module similarity like Similarity,
// memoizing EditDistance attribute comparisons in memo (which may be nil).
// Interned attributes (labels, types) take a symbol fast path: IDs come
// from one shared append-only table, so equal nonzero IDs prove the
// strings identical (similarity 1 under every comparator) and distinct
// nonzero IDs prove them different, which decides Exact outright and
// routes EditDistance through the symbol-keyed memo. ExactFold still
// compares the strings for distinct IDs — case-folded equality is not
// symbol equality. Scores are bit-identical to Similarity on unresolved
// modules.
//
//wfsimvet:hotpath
func (s Scheme) SimilarityMemo(a, b *workflow.Module, memo *SimMemo) float64 {
	var sum, wsum float64
	for _, spec := range s.Specs {
		if ida, idb, interned := attrIDs(a, b, spec.Attr); interned && ida != 0 && idb != 0 {
			// Nonzero IDs prove both strings nonempty: the attribute
			// is present and contributes its weight.
			wsum += spec.Weight
			if ida == idb {
				sum += spec.Weight // identical strings: similarity 1
				continue
			}
			switch spec.Cmp {
			case Exact:
				// distinct symbols: distinct strings, similarity 0
			case ExactFold:
				sum += spec.Weight * ExactFold.compare(value(a, spec.Attr), value(b, spec.Attr))
			case EditDistance:
				if memo != nil {
					sum += spec.Weight * memo.editSimilarityID(ida, idb, value(a, spec.Attr), value(b, spec.Attr))
				} else {
					sum += spec.Weight * EditDistance.compare(value(a, spec.Attr), value(b, spec.Attr))
				}
			}
			continue
		}
		va, vb := value(a, spec.Attr), value(b, spec.Attr)
		if va == "" && vb == "" {
			continue // attribute absent from both: no evidence either way
		}
		sum += spec.Weight * spec.Cmp.compareMemo(va, vb, memo)
		wsum += spec.Weight
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}
