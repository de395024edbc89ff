package wfsim

import (
	"fmt"

	"repro/internal/module"
	"repro/internal/scorecache"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/workflow"
)

// WithShards partitions the corpus across n engine shards by
// consistent-hashed workflow ID (default 1: the whole corpus in one shard).
// Each shard owns its slice of the corpus, its inverted label index
// (WithIndex), its score cache (WithScoreCache) and its own store
// (WithStorage). The engine's read/write surface does not depend on n:
// reads fan out to every shard and merge deterministically, Apply routes
// each mutation to its owning shard with all-or-nothing validation across
// shards, and results are bit-identical at every shard count.
//
// On disk, one shard keeps its store flat in the data directory; n >= 2
// shards use shard-NNNN subdirectories plus a layout marker recording n. A
// data directory written with one shard count refuses to open with another
// — resharding on disk is not supported.
func WithShards(n int) Option {
	return func(e *Engine) error {
		if n < 1 {
			return fmt.Errorf("wfsim: shard count %d < 1", n)
		}
		e.shardCount = n
		return nil
	}
}

// open is New's construction step, run after every option: it checks the
// on-disk layout, builds or recovers every shard — seeded with its ring
// slice of seed when the directory holds no state — and stands up the
// coordinator the engine's operations route through.
func (e *Engine) open(seed *Repository) error {
	n := e.shardCount
	ring, err := shard.NewRing(n)
	if err != nil {
		return err
	}
	if e.storageCfg.warnf == nil {
		e.storageCfg.warnf = func(string, ...any) {}
	}
	durable := e.storageDir != ""
	if durable {
		if err := shard.CheckLayout(e.storageDir, n); err != nil {
			return err
		}
	}
	if durable && seed.Size() > 0 {
		for i := 0; i < n; i++ {
			has, err := storage.DirHasState(shard.StoreDir(e.storageDir, n, i))
			if err != nil {
				return err
			}
			if has {
				return fmt.Errorf("storage directory %s holds stored state; refusing to recover into a non-empty repository (preload only into a fresh data directory)", e.storageDir)
			}
		}
	}
	// Partition the seed by ring owner. For a recovering engine the seed is
	// empty and every shard restores its own slice; the layout pins the
	// shard count, so the recovered partition matches the ring.
	parts := make([][]*workflow.Workflow, n)
	for _, wf := range seed.Workflows() {
		o := ring.Owner(wf.ID)
		parts[o] = append(parts[o], wf)
	}
	perCache := 0
	if e.cacheWanted {
		total := e.cacheSize
		if total <= 0 {
			total = scorecache.DefaultSize
		}
		perCache = (total + n - 1) / n
	}
	// One symbol table for the whole deployment: cross-shard reads compare
	// and cache-key workflows from different shards, so their interned IDs
	// must come from the same assignment order. The seed's table is reused so
	// already-resolved seed workflows keep their IDs.
	e.syms = seed.Symtab()
	e.labelSim = module.NewLabelSim()
	shards := make([]*shard.Local, n)
	closeBuilt := func() {
		for _, s := range shards {
			if s != nil {
				s.Close(nil) //wfsimvet:ignore errpath best-effort unwind of partially built shards; the construction error wins
			}
		}
	}
	for i := range shards {
		cfg := shard.LocalConfig{
			MinShared: e.minShared,
			CacheSize: perCache,
			Seed:      parts[i],
			Symtab:    e.syms,
		}
		if durable {
			cfg.Dir = shard.StoreDir(e.storageDir, n, i)
			cfg.Storage = storage.Options{
				CompactBytes:   e.storageCfg.compactBytes,
				CompactRecords: e.storageCfg.compactRecords,
				NoSync:         e.storageCfg.noSync,
				Warnf:          e.storageCfg.warnf,
			}
		}
		s, err := shard.NewLocal(i, cfg)
		if err != nil {
			closeBuilt()
			return err
		}
		shards[i] = s
	}
	coord, err := shard.NewCoordinator(shards)
	if err != nil {
		closeBuilt()
		return err
	}
	e.coord = coord
	// Finalize steps: the initial repository-knowledge projector is built
	// over the boot view — after every option has run, and over the
	// recovered state rather than the empty seed — and the shard caches are
	// re-seeded from the persisted warm entries under its epoch.
	_, epoch := e.projectionFor(coord.View())
	if durable && e.cacheWanted {
		coord.WarmLoad(e.projectionSig(), epoch)
	}
	return nil
}

// ShardInfo is one shard's stats block, as reported by Reader.ShardStats.
type ShardInfo struct {
	// ID is the shard's ring position.
	ID int `json:"id"`
	// Generation is the shard's own generation (one element of the vector).
	Generation uint64 `json:"generation"`
	// Workflows is the number of corpus workflows the shard owns.
	Workflows int `json:"workflows"`
	// Index is the shard's inverted-index block; nil without WithIndex.
	Index *IndexStats `json:"index,omitempty"`
	// Cache is the shard's score-cache block; nil without WithScoreCache.
	Cache *CacheStats `json:"cache,omitempty"`
	// Storage is the shard's durability block; nil without WithStorage.
	Storage *StorageStats `json:"storage,omitempty"`
}

// ShardStats reports every shard's stats, in shard order (one block on a
// one-shard engine): Generation and Workflows from the Reader's view, the
// Index, Cache and Storage counters live. IndexStats, CacheStats and
// StorageStats serve the cross-shard aggregates.
func (r Reader) ShardStats() []ShardInfo {
	pins := r.v.Pins()
	infos := r.e.coord.Infos()
	out := make([]ShardInfo, len(infos))
	for i, info := range infos {
		si := ShardInfo{ID: info.ID, Generation: pins[i].Generation(), Workflows: pins[i].Size()}
		if info.Index != nil {
			si.Index = &IndexStats{
				Live:        info.Index.Live,
				Dead:        info.Index.Dead,
				Vocabulary:  info.Index.Vocabulary,
				Compactions: info.Index.Compactions,
				Rebuilds:    info.IndexRebuilds,
				Generation:  info.Index.Generation,
			}
		}
		if info.Cache != nil {
			st := *info.Cache
			si.Cache = &st
		}
		if info.Storage != nil {
			si.Storage = &StorageStats{Stats: *info.Storage, WarmCacheEntries: info.WarmEntries}
		}
		out[i] = si
	}
	return out
}
