package wfsim

import "repro/internal/scorecache"

// CacheStats reports the shared score cache's cumulative hit/miss/eviction
// counters and current population. Commits never empty the cache, so
// capacity is what bounds it: Evictions growing while Entries sits at the
// configured size means the working set does not fit.
type CacheStats = scorecache.Stats

// WithScoreCache gives the engine a shared pairwise score cache holding up
// to size entries (a default capacity when size <= 0), allocated up front at
// about 60 bytes per entry; when it is full a new score pushes out one that
// has not been hit lately (second chance). The cache is threaded
// through Search, Duplicates and Cluster, so repeated and overlapping
// queries stop re-running measure evaluations — GED, label matching — on
// identical workflow pairs. A score is a function of the two workflows
// compared and of the projection, so entries are keyed by measure, ID pair,
// the two workflows' revisions (one per committed version of an ID) and
// projector epoch: an Apply batch retires exactly the pairs it wrote a side
// of — a replaced or re-added workflow comes back under a new revision, so
// its old scores are never served stale — while every other cached pair
// keeps hitting across the commit; and a projector replacement
// (a repository-knowledge refresh) bumps the epoch, so
// scores computed under a different importance projection are never served
// either. Only pairs of the corpus's own workflow objects are cached: an
// external query can share an ID with a corpus workflow without sharing its
// content.
// With WithShards(n), size is the total budget: each shard gets its own
// cache of size/n entries (the default capacity divided the same way when
// size <= 0), serving that shard's intra- and cross-shard pair scores.
func WithScoreCache(size int) Option {
	return func(e *Engine) error {
		e.cacheWanted = true
		e.cacheSize = size
		return nil
	}
}

// CacheStats returns the cumulative statistics of the engine's score cache,
// summed across shards, or zero statistics when the engine has none.
func (e *Engine) CacheStats() CacheStats {
	var total CacheStats
	for _, info := range e.coord.Infos() {
		if info.Cache != nil {
			total.Hits += info.Cache.Hits
			total.Misses += info.Cache.Misses
			total.Evictions += info.Cache.Evictions
			total.Entries += info.Cache.Entries
		}
	}
	return total
}

// LabelSimStats reports the engine's similarity memo: the Levenshtein
// similarities of pairs of distinct values of every attribute compared by
// edit distance (labels, descriptions, scripts, tool parameters), kept by
// symbol-ID pair for the life of the process so that a scan looks a pair up
// instead of recomputing it. The name predates the memo's holding more than
// labels. One Capacity bounds all of them: Entries pinned at Capacity means
// insertion has stopped and every new value pair is recomputed per module
// pair — still correct, but slow.
type LabelSimStats struct {
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// LabelSimStats returns the similarity memo's population and bound.
func (e *Engine) LabelSimStats() LabelSimStats {
	return LabelSimStats{Entries: e.simMemo.Len(), Capacity: e.simMemo.Cap()}
}

// Symbols returns the size of the engine's symbol table: the distinct
// strings (workflow IDs, canonical labels, every compared module attribute)
// interned by ingest and by workflows from outside (inline search queries,
// Compare sides) since boot. The table only grows; a restart rebuilds it
// from the stored corpus.
func (e *Engine) Symbols() int { return e.syms.Len() }
