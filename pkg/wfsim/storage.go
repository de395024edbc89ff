package wfsim

import (
	"fmt"

	"repro/internal/shard"
	"repro/internal/storage"
)

// WithStorage makes the engine's repository durable, backed by the given
// data directory (one store per shard; see WithShards for the layout). Every
// Apply batch is appended to an append-only mutation log and fsynced inside
// the transaction boundary — the in-memory commit
// happens only after the record is durable, so a process killed at any
// instant restarts at the last fully-committed generation. The log is
// periodically compacted into snapshot files, and construction recovers the
// directory's state: latest valid snapshot plus replayed log tail, with a
// torn final record truncated (warned about, never fatal).
//
// The repository passed to New must be empty when the directory holds
// state; an engine over a pre-populated repository and a fresh directory
// persists the initial contents as the baseline snapshot. When the engine
// also has a score cache (WithScoreCache), Close persists every cached score
// whose two workflows are still current in the final snapshot (per shard:
// the pairs it owns both sides of) and the next boot re-seeds them, so a
// restart is warm, not just correct — also when a batch committed after the
// last scan.
//
// Call Engine.Close on shutdown to flush a final snapshot; mutations after
// Close fail.
func WithStorage(dir string, opts ...StorageOption) Option {
	return func(e *Engine) error {
		if dir == "" {
			return fmt.Errorf("empty storage directory")
		}
		e.storageDir = dir
		for _, o := range opts {
			o(&e.storageCfg)
		}
		return nil
	}
}

// StorageOption fine-tunes WithStorage.
type StorageOption func(*storageConfig)

// storageConfig mirrors the internal storage options on the engine.
type storageConfig struct {
	compactBytes   int64
	compactRecords int64
	noSync         bool
	warnf          func(format string, args ...any)
}

// StorageCompaction sets the log-size thresholds (bytes, records) past
// which a commit triggers snapshot compaction; zero keeps a default,
// negative disables that trigger.
func StorageCompaction(bytes int64, records int) StorageOption {
	return func(c *storageConfig) {
		c.compactBytes = bytes
		c.compactRecords = int64(records)
	}
}

// StorageNoSync skips the per-commit fsync. Only for tests and benchmarks:
// a crash may then lose recent commits (never corrupt the store).
func StorageNoSync() StorageOption {
	return func(c *storageConfig) { c.noSync = true }
}

// StorageWarnings routes storage warnings — torn-tail truncation at boot,
// background compaction failures — to warnf (e.g. log.Printf). Discarded
// by default; the facts are still visible in StorageStats.
func StorageWarnings(warnf func(format string, args ...any)) StorageOption {
	return func(c *storageConfig) { c.warnf = warnf }
}

// StorageStats describes the engine's durability layer: mutation-log size,
// latest snapshot generation, compaction count, and what boot-time recovery
// found (snapshot loaded, records replayed, torn tail truncated).
type StorageStats struct {
	storage.Stats
	// WarmCacheEntries is the number of persisted pairwise scores re-seeded
	// into the score cache at boot.
	WarmCacheEntries int `json:"warm_cache_entries"`
}

// StorageStats reports the durability layer's counters; ok is false when
// the engine was built without WithStorage. The counters are summed across
// the per-shard stores (Dir is the root data directory); per-shard detail
// is in ShardStats.
func (e *Engine) StorageStats() (stats StorageStats, ok bool) {
	if e.storageDir == "" {
		return StorageStats{}, false
	}
	stats.Dir = e.storageDir
	for _, info := range e.coord.Infos() {
		if info.Storage == nil {
			continue
		}
		stats.LogBytes += info.Storage.LogBytes
		stats.LogRecords += info.Storage.LogRecords
		stats.SnapshotGeneration += info.Storage.SnapshotGeneration
		stats.Compactions += info.Storage.Compactions
		stats.Recovery.SnapshotLoaded = stats.Recovery.SnapshotLoaded || info.Storage.Recovery.SnapshotLoaded
		stats.Recovery.SnapshotGeneration += info.Storage.Recovery.SnapshotGeneration
		stats.Recovery.ReplayedRecords += info.Storage.Recovery.ReplayedRecords
		stats.Recovery.ReplayedOps += info.Storage.Recovery.ReplayedOps
		stats.Recovery.TornTailTruncated = stats.Recovery.TornTailTruncated || info.Storage.Recovery.TornTailTruncated
		stats.Recovery.Generation += info.Storage.Recovery.Generation
		stats.Recovery.Workflows += info.Storage.Recovery.Workflows
		stats.WarmCacheEntries += info.WarmEntries
	}
	return stats, true
}

// projectionSig describes the projection configuration for warm-cache
// validity: persisted scores are only re-seeded into a process whose
// projection is derived the same way (same repository-knowledge threshold,
// or the same static configuration).
func (e *Engine) projectionSig() string {
	if e.repoKnow != nil {
		return fmt.Sprintf("repoknow:%g", e.repoKnow.threshold)
	}
	return "configured"
}

// Close flushes and closes the engine's durability layer: on every shard a
// final snapshot compaction, warm score-cache persistence (when the engine
// has a cache), and release of the underlying files. Mutations after Close
// fail with a storage-closed error; reads keep working from memory. Call it
// once writers are done: a batch racing Close either commits before the
// flush or is refused. Close is idempotent and a no-op for engines without
// WithStorage.
func (e *Engine) Close() error {
	if e.storageDir == "" {
		return nil
	}
	var warm *shard.WarmSpec
	if e.cacheWanted {
		_, epoch := e.projectionFor(e.coord.View())
		warm = &shard.WarmSpec{Sig: e.projectionSig(), Epoch: epoch}
	}
	return e.coord.Close(warm)
}

// HasStoredState reports whether dir holds recoverable repository state (a
// snapshot or at least one committed log record, in the flat or the
// multi-shard layout) — what a daemon checks before allowing a corpus
// preload to target the directory.
func HasStoredState(dir string) (bool, error) { return shard.DirHasState(dir) }
