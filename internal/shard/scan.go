package shard

import (
	"math"

	"repro/internal/index"
	"repro/internal/measures"
	"repro/internal/module"
	"repro/internal/scorecache"
	"repro/internal/search"
	"repro/internal/storage"
	"repro/internal/workflow"
)

// ScanPrep carries one read operation's measure across shards: the resolved
// measure, the projector epoch for cache keying, and — when the measure
// supports it (measures.Specialisable) — a scan-specialised form that hoists
// the importance projection out of the per-pair Compare and memoizes
// repeated attribute comparisons (module.SimMemo). The memo has two
// lifetimes: similarities of interned labels are kept by symbol-ID pair in
// the module.LabelSim the prep was built over — the engine's, one per symbol
// table, outliving the scan (NewScanPrepWith), or a private one that dies
// with the prep (NewScanPrep) — while string-keyed entries (descriptions,
// scripts, unresolved workflows) always die with the prep. Every workflow a
// prep compares must be resolved by one symbol table, or by none: IDs of two
// tables mean nothing against each other (Pin.Search strips a foreign
// query's resolution). The specialised form returns bit-identical scores;
// only redundant per-pair work (re-projecting the same workflow, re-running
// Levenshtein on the same label pair) is removed.
//
// A ScanPrep is built once per read operation and is safe for concurrent use
// by all shards of that operation.
type ScanPrep struct {
	// Name is the measure's canonical notation name (stats, cache keys).
	Name string
	// Epoch is the projector epoch the measure was resolved under.
	Epoch uint64

	inner measures.Measure // compares pre-projected workflows
	// bounded is inner when it has an exact score bound, nil otherwise. It is
	// settled here, once per scan, and decides more than who calls
	// UpperBound: a search under a bounded measure never takes the index's
	// candidates (Pin.Search).
	bounded measures.Bounded
	project measures.Projector // nil when nothing was hoisted
}

// NewScanPrep resolves m for a scatter-gather scan with a scan-scoped memo.
// epoch is the projector epoch of the projection m was resolved with.
func NewScanPrep(m measures.Measure, epoch uint64) *ScanPrep {
	return NewScanPrepWith(m, epoch, nil)
}

// NewScanPrepWith is NewScanPrep over labels, the label-similarity memo of
// the symbol table that resolved the corpus and the query (nil for a
// scan-scoped one).
func NewScanPrepWith(m measures.Measure, epoch uint64, labels *module.LabelSim) *ScanPrep {
	p := &ScanPrep{Name: m.Name(), Epoch: epoch, inner: m}
	if sp, ok := m.(measures.Specialisable); ok {
		p.project, p.inner = sp.Specialise(module.NewSimMemoWith(labels))
	}
	p.bounded, _ = p.inner.(measures.Bounded)
	return p
}

// ProjectOne applies the hoisted projection to one workflow; it is the
// identity when nothing was hoisted. A projector built by
// repoknow.NewProjector — every one the engine uses — caches its result on
// the workflow (workflow.Projection), so projecting a corpus workflow again,
// in this scan or a later one, costs a load.
func (p *ScanPrep) ProjectOne(wf *workflow.Workflow) *workflow.Workflow {
	if p.project == nil {
		return wf
	}
	return p.project(wf)
}

// pairKey builds the cache key of the committed pair (a, b): the two
// workflow-ID symbols plus the two revisions packed into one uint64, ordered
// to match scorecache.PairKey's symbol canonicalization (the revision of the
// numerically smaller symbol lands in the high bits). A revision names one
// committed content version of its ID for the life of the process (see
// workflow.Rev), so a key outlives every commit that touches neither side.
// ok is false when a side carries no stable identity — unresolved (symbol
// 0), never committed (revision 0: an inline query, a clone) — or when a
// revision no longer fits in 32 bits: the pair is then simply not cached
// rather than risking key collisions.
func pairKey(measure string, a, b *workflow.Workflow, epoch uint64) (key scorecache.Key, ok bool) {
	ida, idb := a.SymID(), b.SymID()
	aRev, bRev := a.Rev(), b.Rev()
	if ida == 0 || idb == 0 || aRev == 0 || bRev == 0 || aRev >= 1<<32 || bRev >= 1<<32 {
		return key, false
	}
	if idb < ida {
		aRev, bRev = bRev, aRev
	}
	return scorecache.PairKey(measure, ida, idb, aRev<<32|bRev, epoch), true
}

// pairScorer scores (origin, projected) pairs through a shard's score cache
// and counts what each pair cost. It belongs to one worker of one scan —
// calls on it never overlap, so its counters are plain integers — and a scan
// sums its workers' counters into ReadStats once its pool has drained.
type pairScorer struct {
	prep    *ScanPrep
	cache   *scorecache.Cache // nil disables caching
	hits    int
	miss    int
	evals   int // evaluations that produced a score
	bounded int // pairs an exact bound eliminated
}

// workerScorers returns one scorer per worker of a scan over s. Each is
// padded out to its own cache lines, so workers counting side by side never
// write to a line another worker's counters share.
func (s *Local) workerScorers(prep *ScanPrep, workers int) []paddedScorer {
	scorers := make([]paddedScorer, workers)
	for w := range scorers {
		scorers[w].pairScorer = pairScorer{prep: prep, cache: s.cache}
	}
	return scorers
}

// paddedScorer is a pairScorer followed by a cache line of padding.
type paddedScorer struct {
	pairScorer
	_ [64]byte
}

// boundedBelow reports — and counts — that the pre-projected pair provably
// scores below floor by the measure's cheap bound. It runs before anything
// else a pair would cost: a pair it eliminates is never looked up, never
// evaluated and never cached.
//
//wfsimvet:hotpath
func (ps *pairScorer) boundedBelow(aProj, bProj *workflow.Workflow, floor float64) bool {
	if ps.prep.bounded == nil || !(ps.prep.bounded.UpperBound(aProj, bProj) < floor) {
		return false
	}
	ps.bounded++
	return true
}

// compare scores the pair with the scan's measure, giving up (below) once
// the score provably falls under floor. A nil projection means the caller
// left that side to be projected only if the pair is actually evaluated (a
// search candidate whose score the cache may already hold).
//
//wfsimvet:hotpath
func (ps *pairScorer) compare(a, b, aProj, bProj *workflow.Workflow, floor float64) (s float64, below bool, err error) {
	// Evaluate in ID order: measures are symmetric in value but not always
	// in bits (summation order inside the matcher differs), so a score must
	// be a function of the unordered pair — whichever walk or search it
	// came from, and whichever scan put it in the cache.
	if !workflow.IDsInOrder(a.ID, b.ID) {
		a, b, aProj, bProj = b, a, bProj, aProj
	}
	if aProj == nil {
		aProj = ps.prep.ProjectOne(a)
	}
	if bProj == nil {
		bProj = ps.prep.ProjectOne(b)
	}
	if ps.prep.bounded != nil {
		s, below, err = ps.prep.bounded.CompareFloor(aProj, bProj, floor)
	} else {
		s, err = ps.prep.inner.Compare(aProj, bProj)
	}
	switch {
	case below:
		ps.bounded++
	case err == nil:
		ps.evals++
	}
	return s, below, err
}

// score evaluates the pair (a, b), in either orientation — the cache key is
// orientation-free and compare puts the pair in ID order — serving and
// populating the cache when both sides are cacheable corpus-owned objects.
// Cache keys are built from the workflows' interned ID symbols and revisions
// (pairKey); a side without them (an inline query, a clone) carries no
// stable cache identity and is scored directly. A cacheable pair is two
// snapshot objects, which their repositories resolved against the shards'
// one symbol table (NewCoordinator refuses two), so their symbols share the
// cache's keyspace.
//
// floor is the lowest score the caller can use. A pair the cache will not
// keep is abandoned (below) as soon as the measure proves it scores under
// the floor. A pair the cache will keep is always finished and stored, floor
// or not: the next scan then takes a hit where it would otherwise redo
// whatever work preceded the proof, on every scan. Callers apply the
// measure's cheap bound (boundedBelow) before they get here.
//
//wfsimvet:hotpath
func (ps *pairScorer) score(a, b, aProj, bProj *workflow.Workflow, cacheable bool, floor float64) (s float64, below bool, err error) {
	if ps.cache == nil || !cacheable {
		return ps.compare(a, b, aProj, bProj, floor)
	}
	key, ok := pairKey(ps.prep.Name, a, b, ps.prep.Epoch)
	if !ok {
		return ps.compare(a, b, aProj, bProj, floor)
	}
	if s, ok := ps.cache.Get(key); ok {
		ps.hits++
		return s, false, nil
	}
	ps.miss++
	s, _, err = ps.compare(a, b, aProj, bProj, math.Inf(-1))
	if err != nil {
		// Failures (e.g. GED timeouts) are not cached: the budget differs
		// per call, so a later call may succeed.
		return s, false, err
	}
	ps.cache.Put(key, s)
	return s, false, nil
}

// fill sums the worker scorers' counters into st.
func fill(scorers []paddedScorer, st *ReadStats) {
	for w := range scorers {
		ps := &scorers[w]
		st.CacheHits += ps.hits
		st.CacheMisses += ps.miss
		st.Scored += ps.hits + ps.evals
		st.Bounded += ps.bounded
	}
}

// ReadStats aggregates one shard's (or one merged operation's) scan work.
type ReadStats struct {
	// Scored is the number of pairs evaluated or served from cache.
	Scored int
	// Skipped counts pairs the measure failed on (disregarded, as in the
	// paper's GED-timeout treatment).
	Skipped int
	// Bounded counts pairs left unscored because an exact upper bound on
	// their score (measures.Bounded) fell below what the operation could
	// still use — the k-th best so far, the duplicate threshold. Results are
	// the same as if they had been scored. How many pairs end up here rather
	// than in Scored depends on the order workers reach them; the sum of
	// Scored, Bounded, Pruned and Skipped does not.
	Bounded int
	// Pruned counts workflows the inverted index filtered out unscored — a
	// heuristic, unlike Bounded, and only ever taken by a measure that has no
	// bound.
	Pruned int
	// CacheHits / CacheMisses are the scan's score-cache counters.
	CacheHits   int
	CacheMisses int
}

// add accumulates per-shard stats into a merged total.
func (s *ReadStats) add(o ReadStats) {
	s.Scored += o.Scored
	s.Skipped += o.Skipped
	s.Bounded += o.Bounded
	s.Pruned += o.Pruned
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
}

// Query is one scatter-gather search request, fanned out to every pin.
type Query struct {
	// Query is the query workflow (resolved from its owner shard for
	// SearchID, or caller-provided for ad-hoc queries).
	Query *workflow.Workflow
	// QueryGen is ignored: cache keys carry the query object's own revision
	// (workflow.Rev), not its shard's generation. The field remains only
	// because the frozen benchmark harness still sets it.
	QueryGen uint64
	// Cacheable marks Query as the owner shard's own snapshot object, so
	// query/corpus pair scores may enter and be served from the cache under
	// the object's symbol and revision.
	Cacheable bool
	// K is the per-shard (and merged) result count.
	K int
	// Exact forces a full scan even on shards with an index (a measure with
	// an exact score bound gets one regardless).
	Exact bool
	// IncludeQuery keeps the query workflow in the results.
	IncludeQuery bool
	// MinSimilarity drops results at or below the threshold.
	MinSimilarity *float64
	// Par bounds each shard's scoring workers on the full-scan path.
	Par int
	// Floor is the k-th best similarity found so far by any shard answering
	// this query (see search.Options.Floor). Coordinator.Search creates one
	// per call; a pin searched on its own (nil) uses a private one.
	Floor *search.Floor
}

// Shard is a vestige of the interface the coordinator once held its shards
// behind; Local is the one shard there is. The alias remains for callers
// that still name the type.
type Shard = *Local

// WarmSpec identifies the projection configuration warm-cache entries are
// persisted under (see the engine's projection signature and epoch).
type WarmSpec struct {
	Sig   string
	Epoch uint64
}

// Info is one shard's live counters, aggregated by the engine and exposed
// per-shard by the service layer; generations are read from a View's pins.
type Info struct {
	ID        int
	Workflows int // live, outside any View: for size-skew probes only
	// Index is nil for shards without an inverted index.
	Index *index.Stats
	// IndexRebuilds counts full index rebuilds (drift recovery).
	IndexRebuilds int
	// Cache is nil for shards without a score cache.
	Cache *scorecache.Stats
	// Storage is nil for RAM-only shards.
	Storage *storage.Stats
	// WarmEntries is the number of warm cache entries re-seeded at boot.
	WarmEntries int
}
