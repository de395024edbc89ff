package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/scorecache"
	"repro/internal/search"
	"repro/internal/storage"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// LocalConfig configures one in-process shard.
type LocalConfig struct {
	// MinShared > 0 gives the shard an inverted label index with that
	// candidate threshold.
	MinShared int
	// CacheSize > 0 gives the shard its own pairwise score cache.
	CacheSize int
	// Dir, when non-empty, backs the shard with its own storage directory
	// (mutation log + snapshots); boot recovers it.
	Dir string
	// Storage tunes the shard's store; ignored without Dir.
	Storage storage.Options
	// Seed populates a shard with no recovered state at generation 0 (and
	// persists it as the baseline snapshot when the shard is durable).
	// Seeding a shard that recovered state is an error.
	Seed []*workflow.Workflow
	// Symtab is the symbol table this shard's repository interns into — one
	// table shared by every shard of a deployment, so a workflow's interned
	// IDs mean the same thing on whichever shard scores it. It is
	// process-local state: boot fills it by resolving the recovered (or
	// seeded) workflows, nothing stores it. A shard given none interns into
	// a private table of its own.
	Symtab *symtab.Table
}

// Local is one in-process shard: it owns its slice of the corpus as a
// snapshot-versioned corpus.Repository, its inverted label index, its score
// cache, and (optionally) its own durable store. Reads go through a Pin (a
// consistent point-in-time capture); writes go through the two-phase
// Validate/Commit pair, driven by a Coordinator that serializes writers
// across shards.
type Local struct {
	id        int
	repo      *corpus.Repository
	idx       atomic.Pointer[index.Index]
	minShared int
	cache     *scorecache.Cache
	store     *storage.Store
	syms      *symtab.Table
	warnf     func(format string, args ...any)

	rebuilds    atomic.Int64
	warmEntries int

	closeMu sync.Mutex
	closed  bool
}

// NewLocal builds (and, when cfg.Dir is set, recovers) one shard.
func NewLocal(id int, cfg LocalConfig) (*Local, error) {
	repo, err := corpus.NewRepository()
	if err != nil {
		return nil, err
	}
	s := &Local{
		id:        id,
		repo:      repo,
		minShared: cfg.MinShared,
		syms:      cfg.Symtab,
		warnf:     cfg.Storage.Warnf,
	}
	if s.syms == nil {
		s.syms = symtab.New()
	}
	if s.warnf == nil {
		s.warnf = func(string, ...any) {}
	}
	if cfg.CacheSize > 0 {
		s.cache = scorecache.New(cfg.CacheSize)
	}
	// Wire the symbol table before any workflow enters the repository, so
	// every ingest resolves against it.
	if err := repo.AdoptSymtab(s.syms); err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	if cfg.Dir != "" {
		store, wfs, gen, err := storage.Open(cfg.Dir, cfg.Storage)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", id, err)
		}
		if gen > 0 || len(wfs) > 0 {
			if len(cfg.Seed) > 0 {
				store.Close() //wfsimvet:ignore errpath abort path before any write; the refusal error wins
				return nil, fmt.Errorf("shard %d: directory %s holds state at generation %d; refusing to seed over it", id, cfg.Dir, gen)
			}
			if err := repo.Restore(gen, wfs...); err != nil {
				store.Close()
				return nil, fmt.Errorf("shard %d: %w", id, err)
			}
		} else if len(cfg.Seed) > 0 {
			if err := s.seed(cfg.Seed); err != nil {
				store.Close()
				return nil, err
			}
			// Persist the seed as the baseline snapshot so the partition
			// assignment itself survives a restart.
			if err := store.Compact(0, cfg.Seed); err != nil {
				store.Close()
				return nil, fmt.Errorf("shard %d: persist seed: %w", id, err)
			}
		}
		repo.SetCommitHook(func(gen uint64, ops []corpus.Op) error {
			return store.Commit(gen, ops)
		})
		s.store = store
	} else if len(cfg.Seed) > 0 {
		if err := s.seed(cfg.Seed); err != nil {
			return nil, err
		}
	}
	if s.minShared > 0 {
		s.rebuildIndex()
		s.rebuilds.Store(0) // the initial build is not drift recovery
	}
	return s, nil
}

// seed installs the initial partition slice at generation 0.
func (s *Local) seed(wfs []*workflow.Workflow) error {
	if err := s.repo.Restore(0, wfs...); err != nil {
		return fmt.Errorf("shard %d: seed: %w", s.id, err)
	}
	return nil
}

// ID is the shard's position in the ring ([0, N)).
func (s *Local) ID() int { return s.id }

// Repository exposes the shard's repository for tests.
func (s *Local) Repository() *corpus.Repository { return s.repo }

// Validate checks a sub-batch against current state without mutating
// anything: the prepare phase of a cross-shard Apply.
func (s *Local) Validate(ops []corpus.Op) error {
	return s.repo.ValidateBatch(ops)
}

// Commit applies a coordinator-validated sub-batch, returns the shard's new
// generation and maintains the inverted index incrementally — O(labels) per
// op, under one index write lock together with the generation stamp, so a
// concurrent search never passes the generation check against a
// half-applied index.
// The full rebuild is drift recovery only: an index that was not current
// for the pre-batch generation, or a batch the index rejects.
func (s *Local) Commit(ops []corpus.Op) (uint64, error) {
	gen, err := s.repo.ApplyBatch(ops)
	if err != nil {
		return 0, err
	}
	if idx := s.idx.Load(); idx != nil {
		if idx.Generation() != gen-1 || idx.Apply(ops, gen) != nil {
			s.rebuildIndex()
			s.rebuilds.Add(1)
		}
	}
	return gen, nil
}

// rebuildIndex rebuilds the inverted index from the current snapshot.
func (s *Local) rebuildIndex() {
	snap := s.repo.Snapshot()
	idx := index.Build(snap)
	idx.SetGeneration(snap.Generation())
	s.idx.Store(idx)
}

// Maintain compacts the mutation log into a snapshot when it has outgrown
// its thresholds. Runs outside the coordinator's commit lock, so compaction
// I/O never blocks readers pinning new views.
func (s *Local) Maintain() {
	if s.store == nil || !s.store.ShouldCompact() {
		return
	}
	snap := s.repo.Snapshot()
	if err := s.store.Compact(snap.Generation(), snap.Workflows()); err != nil {
		s.warnf("shard %d: snapshot compaction at generation %d failed: %v", s.id, snap.Generation(), err)
	}
}

// Info reports the shard's current stats for aggregation.
func (s *Local) Info() Info {
	info := Info{
		ID:          s.id,
		Workflows:   s.repo.Snapshot().Size(),
		WarmEntries: s.warmEntries,
	}
	if idx := s.idx.Load(); idx != nil {
		st := idx.Stats()
		info.Index = &st
		info.IndexRebuilds = int(s.rebuilds.Load())
	}
	if s.cache != nil {
		st := s.cache.Stats()
		info.Cache = &st
	}
	if s.store != nil {
		st := s.store.Stats()
		info.Storage = &st
	}
	return info
}

// WarmLoad re-seeds the shard's cache with its persisted intra-shard pair
// scores under the boot-time projector epoch and returns how many it
// restored. The cache file names workflows by ID string (it outlives the
// process-local symbols and revisions), so each entry is re-keyed by the
// recovered objects themselves; an ID the recovered snapshot lacks makes the
// entry stale and it is skipped rather than mis-keyed.
func (s *Local) WarmLoad(sig string, epoch uint64) int {
	if s.store == nil || s.cache == nil {
		return 0
	}
	snap := s.repo.Snapshot()
	entries, ok := s.store.LoadScoreCache(snap.Generation(), sig)
	if !ok {
		return 0
	}
	n := 0
	for _, ent := range entries {
		a, b := snap.Get(ent.A), snap.Get(ent.B)
		if a == nil || b == nil {
			continue
		}
		if key, ok := pairKey(ent.Measure, a, b, epoch); ok {
			s.cache.Put(key, ent.Score)
			n++
		}
	}
	s.warmEntries = n
	return s.warmEntries
}

// Close flushes durable state: final snapshot checkpoint, warm-cache export
// for the shard's own pairs under warm (when non-nil), store release.
// Idempotent; a no-op for RAM-only shards.
func (s *Local) Close(warm *WarmSpec) error {
	if s.store == nil {
		return nil
	}
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	snap := s.repo.Snapshot()
	var firstErr error
	if err := s.store.Checkpoint(snap.Generation(), snap.Workflows()); err != nil {
		firstErr = err
	}
	if tab := s.syms; s.cache != nil && warm != nil {
		exported := s.cache.Export(func(k scorecache.Key) bool { return k.Proj == warm.Epoch })
		// Persist every pair that is still current — the key the final
		// snapshot's own objects build today is the key the score sits under
		// — whichever commit the score was computed after. Workflows are named by ID string: the
		// file outlives this process's symbols and revisions, and the next
		// boot's WarmLoad re-keys it.
		entries := make([]storage.CachedScore, 0, len(exported))
		for _, ent := range exported {
			a, b := snap.Get(tab.String(ent.Key.A)), snap.Get(tab.String(ent.Key.B))
			if a == nil || b == nil {
				continue
			}
			if key, ok := pairKey(ent.Key.Measure, a, b, warm.Epoch); ok && key == ent.Key {
				entries = append(entries, storage.CachedScore{Measure: key.Measure, A: a.ID, B: b.ID, Score: ent.Score})
			}
		}
		if len(entries) > 0 {
			if err := s.store.SaveScoreCache(snap.Generation(), warm.Sig, entries); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := s.store.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Pin captures the shard's current state for a consistent read.
func (s *Local) Pin() *Pin {
	return &Pin{s: s, snap: s.repo.Snapshot(), idx: s.idx.Load()}
}

// Symtab returns the shard's symbol table: the one its config named, or its
// own. NewCoordinator checks that every shard of a deployment assigns IDs
// from one table.
func (s *Local) Symtab() *symtab.Table { return s.syms }

// Pin is a consistent point-in-time read view of one shard: a pinned
// repository snapshot plus the index as of pin time. Scans run against the
// pin while later commits proceed; the view never tears.
type Pin struct {
	s    *Local
	snap *corpus.Snapshot
	idx  *index.Index
}

// Shard, Generation, Size, Get and Workflows read the pin: the owning
// shard's ID, the generation it captures, and the pinned slice (by ID, or
// whole in repository order; callers must not modify it).
func (p *Pin) Shard() int                       { return p.s.id }
func (p *Pin) Generation() uint64               { return p.snap.Generation() }
func (p *Pin) Size() int                        { return p.snap.Size() }
func (p *Pin) Get(id string) *workflow.Workflow { return p.snap.Get(id) }
func (p *Pin) Workflows() []*workflow.Workflow  { return p.snap.Workflows() }

// Search scores q against the pinned slice and returns the shard-local top-k
// (merged globally by the coordinator). A measure with an exact score bound
// scans the whole pinned slice: the bound removes most of the work, and the
// result is the exact top-k. A measure without one takes the indexed
// filter-and-refine path when the index is current for the pinned generation
// and the query sets none of Exact/IncludeQuery/MinSimilarity, and scans the
// pinned slice otherwise. Every path scores through the shard's cache and the
// scan's specialised measure.
//
//wfsimvet:hotpath
func (p *Pin) Search(ctx context.Context, prep *ScanPrep, q Query) ([]search.Result, ReadStats, error) {
	// A query resolved by a foreign symbol table carries module IDs that are
	// meaningless against this shard's corpus: the equal-ID fast paths would
	// compare symbols from two ID spaces, and a label memo shared across
	// scans would remember the mix-up. Strip the foreign resolution by
	// cloning — the clone is unresolved, so every comparison involving the
	// query falls back to exact string semantics (the index likewise falls
	// back to string lookup for unresolved queries). The engine never gets
	// here: it resolves a copy of any query its table did not resolve before
	// the fan-out; this guards callers that drive a coordinator directly.
	query := q.Query
	if ref := query.SymtabRef(); ref != nil && ref != p.s.syms {
		query = query.Clone()
	}
	// Filter: the index's candidate capture, for a measure that has nothing
	// better, otherwise the whole pinned slice. Refine: one top-k kernel over
	// either.
	scan := p.snap.Workflows()
	var pruned int
	captured := false // an index capture may hold an older object under an ID
	if prep.bounded == nil && p.idx != nil && p.idx.Generation() == p.snap.Generation() &&
		!q.Exact && !q.IncludeQuery && q.MinSimilarity == nil {
		cands, live := p.idx.CaptureCandidates(query, p.s.minShared)
		scan, pruned, captured = cands, live-len(cands), true
	}
	// The query is left out by identity: within the snapshot no other object
	// carries its ID. Only a captured candidate is compared by ID.
	var self *workflow.Workflow
	if !q.IncludeQuery {
		self = p.snap.Get(query.ID)
	}
	queryProj := prep.ProjectOne(query)
	scorers := p.s.workerScorers(prep, search.Workers(len(scan), q.Par))
	// Per candidate: the measure's cheap bound against the scan's floor, then
	// the pair through the shard's cache and the scan's specialised measure.
	// A candidate meets the query once: when the measure has a bound it is
	// projected up front (the bound reads the projection, which the workflow
	// caches), otherwise only if its pair misses the cache.
	score := func(w int, wf *workflow.Workflow, floor float64) (float64, bool, error) {
		if wf == self || captured && wf.ID == query.ID {
			return 0, true, nil
		}
		ps := &scorers[w].pairScorer
		wfProj := (*workflow.Workflow)(nil) // left to the scorer: projected on a cache miss
		if prep.bounded != nil {
			wfProj = prep.ProjectOne(wf)
			if ps.boundedBelow(queryProj, wfProj, floor) {
				return 0, true, nil
			}
		}
		// Cache only snapshot-owned candidates. The snapshot's own slice is
		// nothing else; an index candidate captured across a compaction can
		// share an ID with a snapshot workflow without sharing its content.
		cacheable := q.Cacheable && (!captured || p.snap.Get(wf.ID) == wf)
		return ps.score(query, wf, queryProj, wfProj, cacheable, floor)
	}
	results, skipped, err := search.TopKFunc(ctx, scan, search.Options{
		K:             q.K,
		Parallelism:   q.Par,
		MinSimilarity: q.MinSimilarity,
		Floor:         q.Floor,
	}, score)
	if err != nil {
		return nil, ReadStats{}, err
	}
	stats := ReadStats{Skipped: skipped, Pruned: pruned}
	fill(scorers, &stats)
	return results, stats, nil
}
