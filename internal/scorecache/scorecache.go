// Package scorecache caches pairwise workflow similarity scores across the
// engine's read operations (Search, Duplicates, Cluster), so repeated and
// overlapping queries stop re-running expensive measure evaluations — GED
// with beam search, label edit-distance matching — on identical pairs. The
// precomputed-per-pair-work reuse follows the same logic that lets
// approximate query engines bound response times on repeated queries.
//
// Entries are keyed by (measure, symA, symB, the two workflows' revisions,
// projector epoch), where symA/symB are the interned symbol IDs of the
// workflow IDs and a revision names one committed content version of its ID
// (workflow.Rev). A score is a function of the two workflows compared and of
// the projection — nothing else in the repository enters it — so a mutation
// batch retires exactly the pairs it wrote a side of: a replaced or re-added
// workflow comes back under a new revision, its old entries are never
// probed again and are evicted once the cache is full, and every other
// cached pair keeps hitting across the commit. Callers resolve IDs through
// the repository's shared symbol table and must skip the cache for workflows
// that are unresolved (symbol 0) or were never committed (revision 0), which
// carry no stable identity.
//
// The cache is a fixed set of flat tables, one per lock shard: an
// open-addressed array of 40-byte slots (linear probing, removal by backward
// shift) allocated once at construction, about 60 bytes per entry of
// capacity. A slot holds no pointer — the measure name is interned to a small
// ID — so the garbage collector never scans the cache, and neither a hit nor
// a store allocates. A lookup hashes four integers to find its chain and
// then compares the whole key, so a hit is always the score stored under
// exactly that key. Eviction is second chance: a full shard gives up the
// first entry its sweep meets that has not been used since the sweep before
// last passed, so an entry that is hit survives every entry that never was.
package scorecache

import (
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// Key identifies one cached pairwise score. a and b are the workflow-ID
// symbols in canonical (numerically sorted) order; the fields are
// unexported so that PairKey, which puts them in that order, is the only
// way to build a key outside this package. rev packs the revisions of the
// two workflow objects the score was computed on, a's in the high 32 bits
// and b's in the low; proj is the projector epoch (bumped whenever the
// importance projection changes), so a score computed under one projection
// configuration is never served under another even for the same two
// objects. Self-pairs (a == b) are ordinary keys: the canonical ordering is
// a no-op and the cached score is the measure's self-similarity.
type Key struct {
	measure string
	a, b    uint32
	rev     uint64
	proj    uint64
}

// Measure, Pair and Proj read a key back (a warm-cache export re-derives
// each exported key from the workflows it names): its measure, its symbol
// pair in canonical order, and its projector epoch.
func (k Key) Measure() string     { return k.measure }
func (k Key) Pair() (a, b uint32) { return k.a, k.b }
func (k Key) Proj() uint64        { return k.proj }

// PairKey builds a Key with the symbol pair in canonical order, so (a,b)
// and (b,a) hit the same entry — similarity is symmetric. rev must already
// be packed in that canonical order (the smaller symbol's revision high).
// Callers must not build keys from unresolved workflows: symbol 0
// identifies nothing.
func PairKey(measure string, a, b uint32, rev, proj uint64) Key {
	if b < a {
		a, b = b, a
	}
	return Key{measure: measure, a: a, b: b, rev: rev, proj: proj}
}

// maxShards is the number of lock shards of any cache large enough to give
// each of them an entry.
const maxShards = 16

// DefaultSize is the total entry capacity used when New is given a
// non-positive size.
const DefaultSize = 1 << 16

// maxMeasures bounds the measure names a cache interns. Names arrive from
// clients (an ensemble can be spelled in unboundedly many ways) and an
// interned name is kept for the life of the cache; scores under a name
// beyond the bound are not cached.
const maxMeasures = 1 << 16

// slot is one table cell. measure is the interned ID of Key.measure, from 1;
// 0 marks the cell empty. used is the shard's sweep count when the entry was
// last hit or overwritten, one less than the count when it was stored if it
// never was (compared modulo 2³²; see evict).
type slot struct {
	ab      uint64 // Key.a<<32 | Key.b
	rev     uint64
	proj    uint64
	score   float64
	measure uint32
	used    uint32
}

type shard struct {
	mu    sync.Mutex
	slots []slot // len > limit: a probe always ends at an empty cell
	n     int    // occupied cells
	limit int    // entry capacity
	hand  int    // next cell the eviction sweep looks at
	sweep uint32 // times the hand has wrapped around slots

	hits, misses, evictions uint64
}

// measureName is one interned Key.measure.
type measureName struct {
	name string
	id   uint32
}

// Cache is a sharded, fixed-capacity table of pairwise similarity scores. It
// is safe for concurrent use.
type Cache struct {
	shards []shard // a power of two of them

	// Interned measure names. last short-cuts the common case of one measure
	// asked for again and again past the lock and the string hash.
	last  atomic.Pointer[measureName]
	mu    sync.RWMutex
	ids   map[string]*measureName
	names []string // names[id-1]
}

// New builds a cache holding up to size entries in total (DefaultSize when
// size <= 0), never more.
func New(size int) *Cache {
	if size <= 0 {
		size = DefaultSize
	}
	n := maxShards
	for n > size {
		n /= 2
	}
	c := &Cache{shards: make([]shard, n), ids: map[string]*measureName{}}
	for i := range c.shards {
		limit := size / n
		if i < size%n {
			limit++
		}
		// At most two thirds full: short probe chains at 60 bytes per entry.
		c.shards[i] = shard{limit: limit, slots: make([]slot, limit+limit/2+1)}
	}
	return c
}

// measureID returns the interned ID of name, 0 when it has none — never
// seen and intern unset, or the table of names is full.
func (c *Cache) measureID(name string, intern bool) uint32 {
	if m := c.last.Load(); m != nil && m.name == name {
		return m.id
	}
	c.mu.RLock()
	m := c.ids[name]
	c.mu.RUnlock()
	if m == nil {
		if !intern {
			return 0
		}
		c.mu.Lock()
		if m = c.ids[name]; m == nil {
			if len(c.names) == maxMeasures {
				c.mu.Unlock()
				return 0
			}
			// Clone: the caller's string may be a slice of a request body.
			m = &measureName{name: strings.Clone(name), id: uint32(len(c.names) + 1)}
			c.ids[m.name] = m
			c.names = append(c.names, m.name)
		}
		c.mu.Unlock()
	}
	c.last.Store(m)
	return m.id
}

// mix is the 128-bit multiply-fold of wyhash.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hash mixes the key's integers. Its low bits pick the shard (shardOf), its
// high bits the home cell within it (home).
func hash(ab, rev, proj uint64, measure uint32) uint64 {
	h := mix(ab^0x9e3779b97f4a7c15, rev^0xbf58476d1ce4e5b9)
	return mix(h^proj, uint64(measure)^0x94d049bb133111eb)
}

func (c *Cache) shardOf(h uint64) *shard { return &c.shards[h&uint64(len(c.shards)-1)] }

// home maps a hash onto [0, len(slots)) by its high bits.
func (s *shard) home(h uint64) int {
	i, _ := bits.Mul64(h, uint64(len(s.slots)))
	return int(i)
}

// find returns the cell holding the key, or the empty cell that ends its
// probe chain (measure == 0 there).
//
//wfsimvet:hotpath
func (s *shard) find(h, ab, rev, proj uint64, measure uint32) *slot {
	for i := s.home(h); ; {
		e := &s.slots[i]
		if e.measure == 0 || e.ab == ab && e.rev == rev && e.proj == proj && e.measure == measure {
			return e
		}
		if i++; i == len(s.slots) {
			i = 0
		}
	}
}

// Get returns the cached score for k and whether it was present, marking the
// entry used and updating the hit/miss counters.
//
//wfsimvet:hotpath
func (c *Cache) Get(k Key) (float64, bool) {
	ab, measure := uint64(k.a)<<32|uint64(k.b), c.measureID(k.measure, false)
	h := hash(ab, k.rev, k.proj, measure)
	s := c.shardOf(h)
	s.mu.Lock()
	if measure != 0 {
		if e := s.find(h, ab, k.rev, k.proj, measure); e.measure != 0 {
			e.used = s.sweep
			score := e.score
			s.hits++
			s.mu.Unlock()
			return score, true
		}
	}
	s.misses++
	s.mu.Unlock()
	return 0, false
}

// Put stores a score for k. When the key's shard is full it first evicts one
// entry of that shard, by second chance (see evict).
//
//wfsimvet:hotpath
func (c *Cache) Put(k Key, score float64) {
	measure := c.measureID(k.measure, true)
	if measure == 0 {
		return
	}
	ab := uint64(k.a)<<32 | uint64(k.b)
	h := hash(ab, k.rev, k.proj, measure)
	s := c.shardOf(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.find(h, ab, k.rev, k.proj, measure)
	if e.measure != 0 {
		e.score, e.used = score, s.sweep
		return
	}
	if s.n == s.limit {
		s.evict()
		e = s.find(h, ab, k.rev, k.proj, measure) // the removal may have moved the chain's end
	}
	s.n++
	*e = slot{ab: ab, rev: k.rev, proj: k.proj, score: score, measure: measure, used: s.sweep - 1}
}

// evict removes the first entry the sweep meets whose turn has come: the hand
// has wrapped twice since the entry was last hit or overwritten, or once since
// it was stored if it never was. An entry that is hit is therefore passed over
// for the rest of that lap and all of the next, and on that next lap the hand
// meets — and cannot pass — every entry that was in the shard at the time of
// the hit and has never been used: all of them go first. The sweep ends
// within two laps: nothing marks an entry used while the shard is locked.
//
//wfsimvet:hotpath
func (s *shard) evict() {
	for {
		if e := &s.slots[s.hand]; e.measure != 0 && s.sweep-e.used >= 2 {
			s.remove(s.hand)
			s.evictions++
			return // the hand stays: remove may have moved an entry under it
		}
		if s.hand++; s.hand == len(s.slots) {
			s.hand = 0
			s.sweep++
		}
	}
}

// remove empties cell i and closes the gap by backward shift: each later
// entry of the cluster moves into the gap unless that would put it before
// its home cell, so every chain still runs unbroken from its home.
//
//wfsimvet:hotpath
func (s *shard) remove(i int) {
	n := len(s.slots)
	for j := i; ; {
		if j++; j == n {
			j = 0
		}
		e := &s.slots[j]
		if e.measure == 0 {
			break
		}
		// e may move to i iff its home is not in the cyclic interval (i, j].
		if home := s.home(hash(e.ab, e.rev, e.proj, e.measure)); (j > i && (home <= i || home > j)) || (j < i && home <= i && home > j) {
			s.slots[i] = *e
			i = j
		}
	}
	s.slots[i] = slot{}
	s.n--
}

// Len returns the current number of cached entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// Entry is one cached score, as enumerated by Export.
type Entry struct {
	Key   Key
	Score float64
}

// Export returns the cached entries whose keys satisfy keep (nil keeps
// everything), in unspecified order — the serialization point for warm
// cache persistence. It holds each shard's lock only while copying that
// shard and marks no entry used.
func (c *Cache) Export(keep func(Key) bool) []Entry {
	var out []Entry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		// Under the shard's lock every ID in its cells is already in names.
		c.mu.RLock()
		names := c.names
		c.mu.RUnlock()
		for j := range s.slots {
			e := &s.slots[j]
			if e.measure == 0 {
				continue
			}
			k := Key{measure: names[e.measure-1], a: uint32(e.ab >> 32), b: uint32(e.ab), rev: e.rev, proj: e.proj}
			if keep == nil || keep(k) {
				out = append(out, Entry{Key: k, Score: e.score})
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Stats reports cumulative hit/miss/eviction counters since construction.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries pushed out by capacity. Commits never empty
	// the cache, so evictions growing while Entries sits at capacity is the
	// sign that the cache is too small for the working set.
	Evictions uint64 `json:"evictions"`
	// Entries is the current cache population.
	Entries int `json:"entries"`
}

// Stats returns the cache's cumulative counters and population.
func (c *Cache) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += s.n
		s.mu.Unlock()
	}
	return st
}
