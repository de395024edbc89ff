package wfsim

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/measures"
	"repro/internal/module"
	"repro/internal/repoknow"
	"repro/internal/shard"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// Engine is the similarity-search facade over one workflow corpus. It owns
// the corpus — partitioned across one or more in-process shards (WithShards),
// each with its slice of the workflows, an optional filter-and-refine
// inverted index, an optional pairwise score cache and an optional durable
// store — plus a measure Registry and a worker pool configuration, and
// exposes the paper's operations — top-k search, pairwise comparison,
// duplicate detection, clustering — as context-aware methods.
//
// The corpus is mutable through Engine.Apply: mutation batches commit
// transactionally under a new generation, the inverted indexes are
// maintained incrementally (no full rebuild), and every read operation pins
// an immutable view of the corpus, so in-flight queries are never torn by
// concurrent writers.
//
// An Engine is safe for concurrent use once built.
type Engine struct {
	reg            *Registry
	gedDeadline    time.Duration // WithGEDBudget; measureFor clamps it per call
	gedBeam        int
	cacheWanted    bool // WithScoreCache was given; cache(s) built in New
	cacheSize      int  // requested total capacity (<= 0 = default)
	minShared      int
	concurrency    int
	defaultMeasure string
	repoKnow       *repoKnowState

	shardCount int                // WithShards (default 1)
	coord      *shard.Coordinator // the data plane: every operation routes through it

	// syms is the deployment's one symbol table and simMemo the
	// similarity memo that belongs to it: both live as long as the engine,
	// every shard interns every compared module attribute into syms, and
	// every scan memoizes the edit-distance similarity of two such symbols
	// into simMemo — which therefore must only ever see workflows syms
	// resolved. Workflows from outside are scored on private copies syms
	// resolves (own).
	syms    *symtab.Table
	simMemo *module.SimMemo

	storageDir string        // WithStorage data directory ("" = RAM only)
	storageCfg storageConfig // WithStorage tuning
}

// repoKnowState derives importance projectors from pinned corpus views
// (WithRepositoryKnowledge). Projectors are keyed by the read frontier they
// were built over — the view's generation vector — so a read over a pinned
// view always projects against that view's own module frequencies, even
// while readers at other frontiers are in flight; no reader can regress
// another reader's projection. Each built projector carries a unique epoch
// for score-cache keying.
type repoKnowState struct {
	threshold float64
	mu        sync.Mutex
	entries   map[string]*projEntry // frontier key -> projector, newest few kept
	order     []string              // insertion order, for eviction
	epochs    uint64
	rebuilds  atomic.Int64
}

// projEntry is one read frontier's importance projector.
type projEntry struct {
	epoch   uint64
	project measures.Projector
}

// entry returns the projector for the given frontier key, building it from
// workflows() (and counting the rebuild) on first use. A handful of recent
// frontiers stay cached so overlapping reads across a mutation boundary
// don't rebuild per call.
func (rk *repoKnowState) entry(key string, workflows func() []*workflow.Workflow) *projEntry {
	rk.mu.Lock()
	defer rk.mu.Unlock()
	if ent, ok := rk.entries[key]; ok {
		return ent
	}
	usage := repoknow.CollectUsage(workflows())
	proj := repoknow.NewProjector(repoknow.NewFrequencyScorer(usage), rk.threshold)
	rk.epochs++
	ent := &projEntry{epoch: rk.epochs, project: proj.Project}
	rk.entries[key] = ent
	rk.order = append(rk.order, key)
	for len(rk.order) > 4 {
		delete(rk.entries, rk.order[0])
		rk.order = rk.order[1:]
	}
	rk.rebuilds.Add(1)
	return ent
}

// Option configures an Engine under construction.
type Option func(*Engine) error

// WithIndex enables filter-and-refine search for the measures that have
// nothing better: an inverted index over canonicalized module labels
// generates candidates sharing at least minShared labels with the query, and
// only candidates are scored. That is a heuristic — a workflow sharing fewer
// labels is never seen, however it would have scored — and Stats.Pruned
// reports what it left out. Which searches use it follows from the measure,
// not from another option: a measure with an exact score bound (Module Sets
// under any scheme, preselection and mapping — the default measure among
// them) never does. Its searches scan every workflow, let the bound discard
// most of them unscored (Stats.Bounded) and return the exact top-k with
// Pruned == 0, index or no index. Path Sets, Graph Edit, BW/BT, label sets,
// ensembles and custom measures have no such bound and search the index's
// candidates unless SearchOptions.Exact is set. The index is maintained on
// every Apply either way.
func WithIndex(minShared int) Option {
	return func(e *Engine) error {
		if minShared < 1 {
			minShared = 1
		}
		e.minShared = minShared
		return nil
	}
}

// WithConcurrency bounds the scoring worker pools (default GOMAXPROCS): a
// search runs one pool of at most n workers per shard, while Duplicates and
// Cluster run one pool of at most n workers over the whole corpus. The
// calling goroutine is one of the workers, so a pool of one scores on the
// caller's goroutine, and each worker keeps its own scan state and counters,
// indexed by its worker number, which are summed once the pool drains.
func WithConcurrency(n int) Option {
	return func(e *Engine) error {
		e.concurrency = n
		return nil
	}
}

// WithRepositoryKnowledge derives the importance projection from the
// repository itself instead of the paper's manual type-based selection:
// module labels are scored by inverse document frequency across the
// repository, and "ip" measures drop modules scoring below threshold
// (<= 0 means DefaultProjectionThreshold). This is the automatic importance
// derivation the paper names as future work (Section 6).
//
// The projector tracks the living repository: it is first computed in New's
// finalize step (after all options, so option order does not matter) and
// recomputed from the post-mutation view whenever the repository
// generation moves — an Engine.Apply that changes module document
// frequencies changes "ip" measure scores on the next read. An engine built
// over an empty repository is valid: the projector keeps everything until
// workflows arrive, then rebuilds from real frequencies.
func WithRepositoryKnowledge(threshold float64) Option {
	return func(e *Engine) error {
		if threshold <= 0 {
			threshold = DefaultProjectionThreshold
		}
		if threshold != threshold || threshold > 1 {
			return fmt.Errorf("repository-knowledge threshold %v out of range (0, 1]: IDF scores never exceed 1, so every module would be projected away", threshold)
		}
		e.repoKnow = &repoKnowState{threshold: threshold, entries: map[string]*projEntry{}}
		return nil
	}
}

// vecKey formats a read frontier key from a generation vector.
func vecKey(gens []uint64) string {
	var b strings.Builder
	b.WriteByte('v')
	for i, g := range gens {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(g, 10))
	}
	return b.String()
}

// projectionFor resolves the importance projection a read over the view must
// use, plus the epoch that keys its cached scores. With repository knowledge
// the projector belongs to the view's generation vector (built lazily, per
// frontier): module frequencies are collected over the union of every
// shard's pinned slice, so the projection does not depend on the shard
// count. Otherwise it is the registry's fixed type-based projector, under
// epoch 0: repository knowledge is the only source of epochs.
func (e *Engine) projectionFor(v shard.View) (measures.Projector, uint64) {
	if rk := e.repoKnow; rk != nil {
		ent := rk.entry(vecKey(v.Generations()), v.Union)
		return ent.project, ent.epoch
	}
	return e.reg.project, 0
}

// ProjectorRebuilds counts repository-knowledge projector computations
// (initial build included); it stays constant between mutations. Zero for
// engines without WithRepositoryKnowledge.
func (e *Engine) ProjectorRebuilds() int {
	if e.repoKnow == nil {
		return 0
	}
	return int(e.repoKnow.rebuilds.Load())
}

// WithGEDBudget sets the per-pair graph-edit-distance deadline and beam
// width used by GE measures (defaults: DefaultGEDDeadline,
// DefaultGEDBeamWidth). A context deadline nearer than the configured
// deadline tightens it further per call.
func WithGEDBudget(deadline time.Duration, beamWidth int) Option {
	return func(e *Engine) error {
		if deadline < 0 || beamWidth < 0 {
			return fmt.Errorf("negative GED budget")
		}
		e.gedDeadline, e.gedBeam = deadline, beamWidth
		return nil
	}
}

// WithDefaultMeasure sets the measure used when an options struct leaves
// Measure empty (default: DefaultMeasure, the paper's best configuration).
func WithDefaultMeasure(name string) Option {
	return func(e *Engine) error {
		e.defaultMeasure = name
		return nil
	}
}

// WithMeasure registers a custom measure in the engine's registry; it can
// then be named in any options struct and inside ensemble notation.
func WithMeasure(name string, m Measure) Option {
	return func(e *Engine) error {
		return e.reg.Register(name, m)
	}
}

// New builds an Engine seeded with repo's workflows. The engine owns its
// corpus from then on: repo is only read here, and later changes to it do
// not reach the engine — mutate through Engine.Apply and read through
// Engine.Read. With WithStorage over a directory that already holds state,
// repo must be empty and the stored corpus is recovered instead. Options are
// applied in order; the default measure is validated against the registry
// before the engine is returned.
func New(repo *Repository, opts ...Option) (*Engine, error) {
	if repo == nil {
		return nil, fmt.Errorf("nil repository")
	}
	e := &Engine{
		reg:            NewRegistry(),
		gedDeadline:    DefaultGEDDeadline,
		gedBeam:        DefaultGEDBeamWidth,
		defaultMeasure: DefaultMeasure,
		shardCount:     1,
	}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if _, err := e.reg.Parse(e.defaultMeasure); err != nil {
		return nil, fmt.Errorf("invalid default measure: %w", err)
	}
	if err := e.open(repo); err != nil {
		return nil, err
	}
	return e, nil
}

// Shards returns the engine's shard count (1 without WithShards).
func (e *Engine) Shards() int { return e.coord.Shards() }

// Registry returns the engine's measure registry, for registering custom
// measures or listing the built-in notation after construction.
func (e *Engine) Registry() *Registry { return e.reg }

// Reader is one read of the engine: a value holding one commit-atomic view
// of the corpus, pinned by Engine.Read. Every method answers from that view,
// so all one caller reports from one Reader belongs to one repository state,
// however many Apply batches commit meanwhile. It is safe for concurrent use.
type Reader struct {
	e *Engine
	v shard.View
}

// Read pins the current corpus view; facts that must agree — a workflow and
// the generation it was read at, a count and a vector — come from one Reader.
func (e *Engine) Read() Reader { return Reader{e: e, v: e.coord.View()} }

// Frontier is a Reader's position in the mutation stream: the generation
// (the sum of the per-shard vector, advanced by every committed Apply batch —
// by one per touched shard), the per-shard vector, and the workflow count.
type Frontier struct {
	Generation  uint64
	Generations []uint64
	Workflows   int
}

// Frontier returns the view's generation, generation vector and size.
func (r Reader) Frontier() Frontier {
	return Frontier{Generation: r.v.AggregateGeneration(), Generations: r.v.Generations(), Workflows: r.v.Size()}
}

// Get returns the workflow with the given ID, or nil. The workflow is shared
// with the engine; callers must not modify it.
func (r Reader) Get(id string) *Workflow { return r.v.Get(id) }

// Workflows returns the view's workflows in ID order, whatever the shard
// count. They are shared with the engine; callers must not modify them.
func (r Reader) Workflows() []*Workflow { return r.v.Union() }

// Size is Read().Frontier().Workflows; the benchmark module calls it.
func (e *Engine) Size() int { return e.Read().Frontier().Workflows }

// ParseMeasure resolves a measure name in the paper's notation (see
// Registry) with the view's projector and the engine's GED budget.
func (r Reader) ParseMeasure(name string) (Measure, error) {
	if name == "" {
		name = r.e.defaultMeasure
	}
	project, _ := r.e.projectionFor(r.v)
	return r.e.reg.parseResolved(name, r.e.gedDeadline, r.e.gedBeam, project)
}

// ParseMeasure is Read().ParseMeasure.
func (e *Engine) ParseMeasure(name string) (Measure, error) { return e.Read().ParseMeasure(name) }

// Project applies the engine's importance projection (the "ip" preprocessing
// of structural measures) to a workflow, against the module frequencies of
// a fresh Read.
func (e *Engine) Project(wf *Workflow) *Workflow {
	project, _ := e.projectionFor(e.Read().v)
	return project(wf)
}

// measureFor resolves name (or the default) with the given projection and
// the engine's GED budget, clamping the deadline to the context's
// remaining time — a call deadline becomes the paper's per-pair GED timeout.
func (e *Engine) measureFor(ctx context.Context, name string, project measures.Projector) (Measure, error) {
	if name == "" {
		name = e.defaultMeasure
	}
	deadline := e.gedDeadline
	if t, ok := ctx.Deadline(); ok {
		if remaining := time.Until(t); deadline == 0 || remaining < deadline {
			deadline = remaining
		}
		if deadline <= 0 {
			deadline = time.Nanosecond // expired; pair scoring fails fast
		}
	}
	return e.reg.parseResolved(name, deadline, e.gedBeam, project)
}

// SearchOptions configures Engine.Search.
type SearchOptions struct {
	// Measure is a name in the paper's notation ("" = engine default).
	Measure string
	// K is the number of results (default 10, the paper's top-10).
	K int
	// MinSimilarity drops results scoring at or below the threshold.
	MinSimilarity *float64
	// Exact forces a full scan even when the engine has an index (a measure
	// with an exact score bound is always scanned in full; see WithIndex).
	Exact bool
	// IncludeQuery keeps the query workflow in the results. Index-backed
	// search always excludes it; IncludeQuery falls back to a full scan.
	IncludeQuery bool
}

// Stats describes how a search was answered.
type Stats struct {
	// Measure is the canonical name of the measure used.
	Measure string
	// Scored is the number of pairs evaluated or served from the score
	// cache.
	Scored int
	// Skipped counts pairs the measure failed on (e.g. GED timeouts),
	// disregarded as in the paper.
	Skipped int
	// Bounded counts pairs left unscored because an exact upper bound on
	// their score fell below what the call could still use — the k-th best
	// similarity found so far in a search, the threshold in Duplicates.
	// Results are exactly those of scoring every pair. How the work splits
	// between Scored and Bounded depends on the order in which workers reach
	// the pairs; Scored + Bounded + Pruned + Skipped is always the number of
	// pairs the call covered (in a search: live workflows, less the query).
	Bounded int
	// Pruned is the number of workflows the index filtered out unscored — a
	// heuristic, unlike Bounded. It is 0 for exact scans, and every scan under
	// a measure with an exact score bound is one (see WithIndex).
	Pruned int
	// CacheHits counts pairs answered from the score cache (0 when the
	// engine has no cache; see WithScoreCache).
	CacheHits int
	// CacheMisses counts cacheable pairs that had to be evaluated.
	CacheMisses int
	// Generation is the corpus generation the call observed: the sum of
	// the per-shard vector, monotonic across commits.
	Generation uint64
	// Generations is the per-shard generation vector the call observed.
	Generations []uint64
	// Elapsed is the wall-clock duration of the call.
	Elapsed time.Duration
}

// Search returns the top-k most similar repository workflows to query,
// fanning the scoring out across the shards and the engine's worker pool. It
// honors ctx: cancellation aborts the scan with ctx.Err(), and a deadline
// additionally tightens the per-pair GED budget. When the engine has an
// index (WithIndex) and the measure has no exact score bound, the search is
// filter-and-refine unless opts.Exact is set.
//
// The scan, the projection and the cache keys all belong to the Reader's
// view: a Reader taken before an Apply commits searches the pre-mutation
// repository. Per-shard top-k lists merge by descending similarity, ties by ID.
//
// A query the engine's symbol table has not resolved — anything but the
// engine's own workflows — is never modified: the engine scores a private
// copy whose module labels and types it interns like ingest does, so every
// module comparison of the scan takes the symbol path.
func (r Reader) Search(ctx context.Context, query *Workflow, opts SearchOptions) ([]Result, Stats, error) {
	if query == nil {
		return nil, Stats{}, fmt.Errorf("nil query workflow")
	}
	query = r.e.own(query)
	prep, err := r.scanPrep(ctx, opts.Measure)
	if err != nil {
		return nil, Stats{}, err
	}
	t0 := time.Now()
	res, rstats, err := r.e.coord.Search(ctx, r.v, prep, shard.Query{
		Query:         query,
		K:             opts.K,
		Exact:         opts.Exact,
		IncludeQuery:  opts.IncludeQuery,
		MinSimilarity: opts.MinSimilarity,
		Par:           r.e.concurrency,
		Cacheable:     r.v.Get(query.ID) == query, // only the view's own objects' pair scores are cached
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return res, r.stats(prep, rstats, t0), nil
}

// Search is Read().Search.
func (e *Engine) Search(ctx context.Context, query *Workflow, opts SearchOptions) ([]Result, Stats, error) {
	return e.Read().Search(ctx, query, opts)
}

// scanPrep resolves the named measure (or the default) against the view's
// projection and prepares it for a scan whose cache keys carry that
// projection's epoch.
func (r Reader) scanPrep(ctx context.Context, name string) (*shard.ScanPrep, error) {
	project, epoch := r.e.projectionFor(r.v)
	m, err := r.e.measureFor(ctx, name, project)
	if err != nil {
		return nil, err
	}
	return shard.NewScanPrepWith(m, epoch, r.e.simMemo), nil
}

// own returns wf when the engine's symbol table resolved it, and otherwise a
// private copy that table resolves: the engine's one rule for workflows from
// outside. Module IDs another table assigned — another engine's, another
// GenerateCorpus's — mean nothing against this engine's, and the caller's
// object, which may be shared, is never touched.
func (e *Engine) own(wf *Workflow) *Workflow {
	if wf.ResolvedBy(e.syms) {
		return wf
	}
	c := wf.Clone()
	c.ResolveModules(e.syms)
	return c
}

// stats reports a scan started at t0 under the view's generation stamps.
func (r Reader) stats(prep *shard.ScanPrep, rs shard.ReadStats, t0 time.Time) Stats {
	return Stats{
		Measure:     prep.Name,
		Scored:      rs.Scored,
		Skipped:     rs.Skipped,
		Bounded:     rs.Bounded,
		Pruned:      rs.Pruned,
		CacheHits:   rs.CacheHits,
		CacheMisses: rs.CacheMisses,
		Generation:  r.v.AggregateGeneration(),
		Generations: r.v.Generations(),
		Elapsed:     time.Since(t0),
	}
}

// SearchID is Search with the query named by repository ID, resolved from
// the Reader's view: a concurrent Replace cannot make the call score stale
// query content under a newer generation stamp.
func (r Reader) SearchID(ctx context.Context, queryID string, opts SearchOptions) ([]Result, Stats, error) {
	query := r.v.Get(queryID)
	if query == nil {
		return nil, Stats{}, fmt.Errorf("query workflow %q not found", queryID)
	}
	return r.Search(ctx, query, opts)
}

// SearchID is Read().SearchID.
func (e *Engine) SearchID(ctx context.Context, queryID string, opts SearchOptions) ([]Result, Stats, error) {
	return e.Read().SearchID(ctx, queryID, opts)
}

// Score is one measure's verdict on a workflow pair.
type Score struct {
	// Measure is the canonical measure name.
	Measure string
	// Similarity is the score; meaningful only when Err is nil.
	Similarity float64
	// Err is the per-measure failure (e.g. a GED timeout), nil on success.
	Err error
}

// CompareMeasures is the representative measure set Compare uses when no
// names are given: both annotation measures and the paper's strongest
// structural configurations.
func CompareMeasures() []string {
	return []string{"BW", "BT", "MS_np_ta_pll", "MS_ip_te_pll", "PS_ip_te_pll", "GE_ip_te_pll"}
}

// Compare scores the pair (a, b) under each named measure (default:
// CompareMeasures) with the view's projection. Unknown measure names fail the
// whole call; per-pair scoring failures are reported in the corresponding
// Score.Err so one GED timeout does not hide the other measures. Like a
// Search query, a side the engine's symbol table has not resolved is scored
// on a private resolved copy and left as it was handed in.
func (r Reader) Compare(ctx context.Context, a, b *Workflow, measureNames ...string) ([]Score, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("nil workflow in Compare")
	}
	a, b = r.e.own(a), r.e.own(b)
	project, _ := r.e.projectionFor(r.v)
	if len(measureNames) == 0 {
		measureNames = CompareMeasures()
	}
	out := make([]Score, 0, len(measureNames))
	for _, name := range measureNames {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := r.e.measureFor(ctx, name, project)
		if err != nil {
			return nil, err
		}
		s, err := m.Compare(a, b)
		out = append(out, Score{Measure: m.Name(), Similarity: s, Err: err})
	}
	return out, nil
}

// Compare is Read().Compare.
func (e *Engine) Compare(ctx context.Context, a, b *Workflow, measureNames ...string) ([]Score, error) {
	return e.Read().Compare(ctx, a, b, measureNames...)
}

// CompareIDs is Compare with the pair named by repository IDs, both resolved
// from the Reader's view.
func (r Reader) CompareIDs(ctx context.Context, aID, bID string, measureNames ...string) ([]Score, error) {
	a, b := r.v.Get(aID), r.v.Get(bID)
	if a == nil || b == nil {
		return nil, fmt.Errorf("workflow %q or %q not found", aID, bID)
	}
	return r.Compare(ctx, a, b, measureNames...)
}

// DuplicateOptions configures Engine.Duplicates.
type DuplicateOptions struct {
	// Measure is a name in the paper's notation ("" = engine default).
	Measure string
}

// Duplicates scans the repository's pair matrix for near-duplicate workflow
// pairs scoring at or above threshold — the functional-equivalence detection
// use case of the paper's introduction. One walk over the Reader's view in ID
// order scores the pair triangle row by row across the engine's worker pool,
// each row through the cache of the shard that owns its workflow, and the
// pairs come back in one order (descending similarity, then A, B; pairs
// oriented A < B by ID); the scan honors ctx cancellation.
// Stats reports the canonical measure name, the number of pairs scored and
// skipped, and the wall-clock duration.
func (r Reader) Duplicates(ctx context.Context, threshold float64, opts DuplicateOptions) ([]Pair, Stats, error) {
	prep, err := r.scanPrep(ctx, opts.Measure)
	if err != nil {
		return nil, Stats{}, err
	}
	t0 := time.Now()
	pairs, rstats, err := r.e.coord.Duplicates(ctx, r.v, prep, threshold, r.e.concurrency)
	if err != nil {
		return nil, Stats{}, err
	}
	return pairs, r.stats(prep, rstats, t0), nil
}

// Duplicates is Read().Duplicates.
func (e *Engine) Duplicates(ctx context.Context, threshold float64, opts DuplicateOptions) ([]Pair, Stats, error) {
	return e.Read().Duplicates(ctx, threshold, opts)
}

// ClusterOptions configures Engine.Cluster.
type ClusterOptions struct {
	// Measure is a name in the paper's notation ("" = engine default).
	Measure string
	// MinSimilarity is the linkage cut-off; nil means 0.5. A pointer so an
	// explicit cut-off of 0 stays distinguishable from "use the default".
	MinSimilarity *float64
	// SingleLinkage switches from average-linkage agglomerative clustering
	// to threshold-graph connected components.
	SingleLinkage bool
}

// ClusterResult is a clustering of the repository into functional groups.
type ClusterResult struct {
	// Measure is the canonical name of the measure used.
	Measure string
	// Clusters holds the member workflow IDs per cluster, in deterministic
	// order (clusters ordered by first member, members in ID order).
	Clusters [][]string
	// Skipped counts pairs the measure could not score (similarity 0).
	Skipped int
	// Generation is the corpus generation of the view clustered.
	Generation uint64
	// Generations is the per-shard generation vector of the view clustered.
	Generations []uint64
}

// Purity evaluates the clustering against a reference assignment of
// workflow IDs to labels (e.g. a generator's GroundTruth clusters): the
// weighted fraction of each found cluster occupied by its dominant
// reference label. IDs missing from ref share the zero label.
func (r *ClusterResult) Purity(ref map[string]int) float64 {
	found, reference := r.assignments(ref)
	p, err := cluster.Purity(found, reference)
	if err != nil {
		return 0 // unreachable: both assignments are built over r's IDs
	}
	return p
}

// RandIndex evaluates the clustering against a reference assignment: the
// fraction of workflow pairs on which the two clusterings agree
// (same-cluster vs different-cluster).
func (r *ClusterResult) RandIndex(ref map[string]int) float64 {
	found, reference := r.assignments(ref)
	ri, err := cluster.RandIndex(found, reference)
	if err != nil {
		return 0 // unreachable: both assignments are built over r's IDs
	}
	return ri
}

// assignments converts the result and a reference labeling into the
// internal clustering representation over the same index space.
func (r *ClusterResult) assignments(ref map[string]int) (found, reference cluster.Clustering) {
	var n int
	for _, members := range r.Clusters {
		n += len(members)
	}
	found = cluster.Clustering{Assign: make([]int, n), K: len(r.Clusters)}
	reference = cluster.Clustering{Assign: make([]int, n)}
	remap := map[int]int{}
	pos := 0
	for k, members := range r.Clusters {
		for _, id := range members {
			found.Assign[pos] = k
			label := ref[id]
			if _, ok := remap[label]; !ok {
				remap[label] = len(remap)
			}
			reference.Assign[pos] = remap[label]
			pos++
		}
	}
	reference.K = len(remap)
	return found, reference
}

// Cluster groups the repository into functional clusters under a similarity
// measure — "grouping of workflows into functional clusters" from the
// paper's introduction. The similarity matrix spans the Reader's view in ID
// order and is computed by the same walk as Duplicates, through the same
// caches; it honors ctx cancellation.
func (r Reader) Cluster(ctx context.Context, opts ClusterOptions) (*ClusterResult, error) {
	prep, err := r.scanPrep(ctx, opts.Measure)
	if err != nil {
		return nil, err
	}
	minSim := 0.5
	if opts.MinSimilarity != nil {
		minSim = *opts.MinSimilarity
	}
	mat, _, err := r.e.coord.Matrix(ctx, r.v, prep, r.e.concurrency)
	if err != nil {
		return nil, err
	}
	var c cluster.Clustering
	if opts.SingleLinkage {
		c = cluster.Components(mat, minSim)
	} else {
		c = cluster.Agglomerative(mat, minSim)
	}
	out := &ClusterResult{
		Measure:     prep.Name,
		Clusters:    make([][]string, c.K),
		Skipped:     mat.Skipped,
		Generation:  r.v.AggregateGeneration(),
		Generations: r.v.Generations(),
	}
	for k, members := range c.Members() {
		ids := make([]string, len(members))
		for i, pos := range members {
			ids[i] = mat.IDs[pos]
		}
		out.Clusters[k] = ids
	}
	return out, nil
}

// Cluster is Read().Cluster.
func (e *Engine) Cluster(ctx context.Context, opts ClusterOptions) (*ClusterResult, error) {
	return e.Read().Cluster(ctx, opts)
}
