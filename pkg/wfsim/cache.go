package wfsim

import "repro/internal/scorecache"

// CacheStats reports the shared score cache's cumulative hit/miss counters
// and current population.
type CacheStats = scorecache.Stats

// WithScoreCache gives the engine a shared pairwise score cache holding up
// to size entries (a default capacity when size <= 0). The cache is threaded
// through Search, Duplicates and Cluster, so repeated and overlapping
// queries stop re-running measure evaluations — GED, label matching — on
// identical workflow pairs. Entries are keyed by measure, ID pair, the
// generations of the owning shards and projector epoch: an Apply batch bumps
// the generation, so scores of removed or replaced workflows are never
// served stale, and a projector replacement (repository-knowledge refresh,
// manual SetProjector) bumps the epoch, so scores computed under a different
// importance projection are never served either. Only pairs of the corpus's
// own workflow objects are cached: an external query can share an ID with a
// corpus workflow without sharing its content.
// With WithShards(n), size is the total budget: each shard gets its own
// cache of size/n entries (or the default capacity per shard when
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
			total.Entries += info.Cache.Entries
		}
	}
	return total
}
