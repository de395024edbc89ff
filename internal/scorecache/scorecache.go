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
// probed again and age out of the LRU, and every other cached pair keeps
// hitting across the commit. Symbol keys make every probe two integer
// compares instead of two string hashes; callers resolve IDs through the
// repository's shared symbol table and must skip the cache for workflows
// that are unresolved (symbol 0) or were never committed (revision 0),
// which carry no stable identity. The cache is sharded to keep lock
// contention off the scoring worker pools; each shard is an independent
// LRU.
package scorecache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Key identifies one cached pairwise score. A and B are the workflow-ID
// symbols in canonical (numerically sorted) order — use PairKey to build
// keys. Rev packs the revisions of the two workflow objects the score was
// computed on, A's in the high 32 bits and B's in the low; Proj is the
// projector epoch (bumped whenever the importance projection changes), so
// a score computed under one projection configuration is never served
// under another even for the same two objects. Self-pairs (A == B) are
// ordinary keys: the canonical ordering is a no-op and the cached score is
// the measure's self-similarity.
type Key struct {
	Measure string
	A, B    uint32
	Rev     uint64
	Proj    uint64
}

// PairKey builds a Key with the symbol pair in canonical order, so (a,b)
// and (b,a) hit the same entry — similarity is symmetric. rev must already
// be packed in that canonical order (the smaller symbol's revision high).
// Callers must not build keys from unresolved workflows: symbol 0
// identifies nothing.
func PairKey(measure string, a, b uint32, rev, proj uint64) Key {
	if b < a {
		a, b = b, a
	}
	return Key{Measure: measure, A: a, B: b, Rev: rev, Proj: proj}
}

const shardCount = 16

// DefaultSize is the total entry capacity used when New is given a
// non-positive size.
const DefaultSize = 1 << 16

type cacheEntry struct {
	key   Key
	score float64
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used
}

// Cache is a sharded LRU of pairwise similarity scores. It is safe for
// concurrent use.
type Cache struct {
	shards       [shardCount]shard
	perShardCap  int
	hits, misses atomic.Uint64
	evictions    atomic.Uint64
}

// New builds a cache holding up to size entries in total (DefaultSize when
// size <= 0).
func New(size int) *Cache {
	if size <= 0 {
		size = DefaultSize
	}
	per := (size + shardCount - 1) / shardCount
	if per < 1 {
		per = 1
	}
	c := &Cache{perShardCap: per}
	for i := range c.shards {
		c.shards[i] = shard{entries: map[Key]*list.Element{}, lru: list.New()}
	}
	return c
}

// shardFor hashes the key onto a shard (FNV-1a over the key fields).
func (c *Cache) shardFor(k Key) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.Measure); i++ {
		h ^= uint64(k.Measure[i])
		h *= prime64
	}
	h ^= 0xff // field separator
	h *= prime64
	h ^= uint64(k.A)<<32 | uint64(k.B)
	h *= prime64
	h ^= k.Rev
	h *= prime64
	h ^= k.Proj
	h *= prime64
	return &c.shards[h%shardCount]
}

// Get returns the cached score for k and whether it was present, updating
// recency and the hit/miss counters.
func (c *Cache) Get(k Key) (float64, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	el, ok := s.entries[k]
	if ok {
		s.lru.MoveToFront(el)
		score := el.Value.(*cacheEntry).score
		s.mu.Unlock()
		c.hits.Add(1)
		return score, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return 0, false
}

// Put stores a score for k, evicting the shard's least recently used entry
// when the shard is full.
func (c *Cache) Put(k Key, score float64) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		el.Value.(*cacheEntry).score = score
		s.lru.MoveToFront(el)
		return
	}
	s.entries[k] = s.lru.PushFront(&cacheEntry{key: k, score: score})
	if s.lru.Len() > c.perShardCap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// Len returns the current number of cached entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
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
// shard and does not update recency.
func (c *Cache) Export(keep func(Key) bool) []Entry {
	var out []Entry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			ent := el.Value.(*cacheEntry)
			if keep == nil || keep(ent.key) {
				out = append(out, Entry{Key: ent.key, Score: ent.score})
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
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load(), Entries: c.Len()}
}
