package shard

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/search"
	"repro/internal/storage"
	"repro/internal/workflow"
)

// Coordinator implements the engine's read/write surface over N >= 1
// shards: it routes mutation batches to the owning shards with all-or-
// nothing validation (prepare on every touched shard before any commit),
// fans reads out via search.Batched, and merges per-shard results
// deterministically.
//
// Concurrency model: writers (and Close) are serialized by applyMu; the
// commit section (WAL append + in-memory commit on every touched shard)
// additionally holds the write half of viewMu, while readers capture a View
// — every shard's pin — under the read half. A View is therefore always a
// commit-atomic frontier of the generation vector: readers never observe
// half a cross-shard batch.
type Coordinator struct {
	ring   *Ring
	shards []*Local

	applyMu sync.Mutex   // serializes Apply transactions and Close
	gens    []uint64     // committed generation vector; guarded by applyMu
	closed  bool         // Close ran: Apply is fenced; guarded by applyMu
	viewMu  sync.RWMutex // W: commit section; R: View capture
}

// NewCoordinator builds a coordinator over the given shards (in ring
// order). At least one shard is required, and all must share one symbol
// table (see Local.Symtab): cross-shard scans compare interned module IDs
// directly, and IDs from two tables are meaningless against each other.
func NewCoordinator(shards []*Local) (*Coordinator, error) {
	ring, err := NewRing(len(shards))
	if err != nil {
		return nil, err
	}
	for i, s := range shards {
		if s.syms != shards[0].syms {
			return nil, fmt.Errorf("shard: coordinator over %d shards with distinct symbol tables (shard %d differs); share one table via LocalConfig.Symtab", len(shards), i)
		}
	}
	gens := make([]uint64, len(shards))
	for i, s := range shards {
		gens[i] = s.Pin().Generation()
	}
	return &Coordinator{ring: ring, shards: shards, gens: gens}, nil
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Ring returns the coordinator's partitioning ring.
func (c *Coordinator) Ring() *Ring { return c.ring }

// Shard returns the i-th shard (tests and stats).
func (c *Coordinator) Shard(i int) *Local { return c.shards[i] }

// Infos reports every shard's stats, in shard order.
func (c *Coordinator) Infos() []Info {
	out := make([]Info, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.Info()
	}
	return out
}

// WarmLoad re-seeds every shard's cache from persisted warm entries.
func (c *Coordinator) WarmLoad(sig string, epoch uint64) int {
	n := 0
	for _, s := range c.shards {
		n += s.WarmLoad(sig, epoch)
	}
	return n
}

// Close closes every shard, returning the first error. It waits out an
// Apply in flight and fences later ones: they fail with storage.ErrClosed
// instead of committing in RAM what no log records any more.
func (c *Coordinator) Close(warm *WarmSpec) error {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	c.closed = true
	var firstErr error
	for _, s := range c.shards {
		if err := s.Close(warm); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// View is a commit-atomic read frontier: one pin per shard, captured
// together. All reads of one engine operation run against a single View.
type View struct {
	pins []*Pin
	ring *Ring
}

// View captures the current read frontier.
func (c *Coordinator) View() View {
	c.viewMu.RLock()
	defer c.viewMu.RUnlock()
	pins := make([]*Pin, len(c.shards))
	for i, s := range c.shards {
		pins[i] = s.Pin()
	}
	return View{pins: pins, ring: c.ring}
}

// Pins returns the per-shard pins in shard order.
func (v View) Pins() []*Pin { return v.pins }

// Generations returns the view's generation vector, indexed by shard.
func (v View) Generations() []uint64 {
	out := make([]uint64, len(v.pins))
	for i, p := range v.pins {
		out[i] = p.Generation()
	}
	return out
}

// AggregateGeneration is the sum of the generation vector — a monotonic
// scalar (every commit bumps at least one shard) for callers that want one
// number; it equals the plain generation at one shard.
func (v View) AggregateGeneration() uint64 {
	var sum uint64
	for _, p := range v.pins {
		sum += p.Generation()
	}
	return sum
}

// Size is the total workflow count across the view.
func (v View) Size() int {
	n := 0
	for _, p := range v.pins {
		n += p.Size()
	}
	return n
}

// Owner returns the pin owning the given workflow ID.
func (v View) Owner(id string) *Pin { return v.pins[v.ring.Owner(id)] }

// Get resolves a workflow by ID from its owning shard's pin.
func (v View) Get(id string) *workflow.Workflow { return v.Owner(id).Get(id) }

// Union returns all workflows of the view sorted by ID — the deterministic
// global order for whole-corpus operations (clustering). Sharding does not
// preserve global insertion order, so ID order is the documented corpus
// order of a sharded engine.
func (v View) Union() []*workflow.Workflow {
	out := make([]*workflow.Workflow, 0, v.Size())
	for _, p := range v.pins {
		out = append(out, p.Workflows()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Apply routes a mutation batch to the owning shards with all-or-nothing
// semantics: every touched shard validates its sub-batch (prepare) before
// any shard commits, so a batch that fails validation anywhere leaves every
// shard's generation and contents untouched. On success the sub-batches
// commit under the view write lock — readers observe the whole cross-shard
// batch or none of it — and the post-commit generation vector is returned.
//
// Caveat (documented limitation, not a code path): the commit phase appends
// to per-shard logs without a coordinator-level transaction record, so a
// crash or storage failure in the middle of the commit loop can leave a
// prefix of the touched shards committed. Validation failures — the only
// errors a well-formed deployment sees — are always atomic.
func (c *Coordinator) Apply(ops []corpus.Op) ([]uint64, error) {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("shard: apply after close: %w", storage.ErrClosed)
	}

	split := make([][]corpus.Op, len(c.shards))
	for _, op := range ops {
		owner := c.ring.Owner(op.ID)
		split[owner] = append(split[owner], op)
	}
	// Prepare: validate every touched shard before committing to any.
	// applyMu guarantees no interleaved writer, so a passing validation
	// stays valid through the commit phase below.
	for i, sub := range split {
		if len(sub) == 0 {
			continue
		}
		if err := c.shards[i].Validate(sub); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	// Commit: apply every sub-batch under the view write lock, so readers
	// never capture a frontier with half the batch.
	c.viewMu.Lock()
	for i, sub := range split {
		if len(sub) == 0 {
			continue
		}
		gen, err := c.shards[i].Commit(sub)
		if err != nil {
			c.viewMu.Unlock()
			return nil, fmt.Errorf("shard %d: commit after cross-shard validation: %w (shards before it committed — generations are mixed; see storage logs)", i, err)
		}
		c.gens[i] = gen
	}
	c.viewMu.Unlock()
	// Deferrable maintenance (log compaction) outside the read-blocking
	// lock.
	for i, sub := range split {
		if len(sub) != 0 {
			c.shards[i].Maintain()
		}
	}
	return append([]uint64(nil), c.gens...), nil
}

// Search fans the query out to every pin via search.Batched and merges the
// per-shard top-k lists into the global top-k (search.SortResults order, so
// ties break the same at every shard count). The shards share one floor, so
// each also skips what another's k-th result already beats. Stats are summed
// across shards.
func (c *Coordinator) Search(ctx context.Context, v View, prep *ScanPrep, q Query) ([]search.Result, ReadStats, error) {
	if q.Floor == nil {
		q.Floor = search.NewFloor()
	}
	per := make([][]search.Result, len(v.pins))
	perStats := make([]ReadStats, len(v.pins))
	err := search.Batched(ctx, len(v.pins), len(v.pins), 1, func(_, i int) error {
		res, st, err := v.pins[i].Search(ctx, prep, q)
		if err != nil {
			return err
		}
		per[i], perStats[i] = res, st
		return nil
	})
	if err != nil {
		return nil, ReadStats{}, err
	}
	var stats ReadStats
	for _, st := range perStats {
		stats.add(st)
	}
	return MergeTopK(per, q.K), stats, nil
}

// pairs is the one whole-corpus pair walk behind Duplicates and Matrix: it
// scores every pair (union[i], union[j]), i < j, of the view's union (in ID
// order, as Union returns it) and hands each score to emit(i, j, score).
// Every member is projected once up front; rows go to one search.Batched pool
// of par workers with batch size 1, so uneven row lengths load-balance. Row
// i scores through the cache of the shard that owns union[i], so a pair
// always meets the same shard's cache, whichever operation asks — and an
// intra-shard pair its own shard's, which is what the warm-cache export
// persists. Pairs the measure fails on are counted as skipped and not
// emitted; neither are pairs that provably score below floor, the lowest
// score the caller can use (-Inf: every pair is emitted), which are counted
// as bounded. Calls of emit for one i are sequential, calls for different i
// may be concurrent.
//
//wfsimvet:hotpath
func (v View) pairs(ctx context.Context, union []*workflow.Workflow, prep *ScanPrep, par int, floor float64, emit func(i, j int, score float64)) (ReadStats, error) {
	proj := make([]*workflow.Workflow, len(union))
	for i, wf := range union {
		proj[i] = prep.ProjectOne(wf)
	}
	workers := search.Workers(len(union), par)
	scorers := make([][]paddedScorer, len(v.pins))
	for s, p := range v.pins {
		scorers[s] = p.s.workerScorers(prep, workers)
	}
	done := ctx.Done() // polled per pair, as search.Batched polls it per row
	var skipped atomic.Int64
	err := search.Batched(ctx, len(union), par, 1, func(w, i int) error {
		a, aProj := union[i], proj[i]
		scorer := &scorers[v.ring.Owner(a.ID)][w].pairScorer
		// The measure's cheap bound runs before anything else a pair would
		// cost: a pair it eliminates is never looked up, never evaluated and
		// never cached. Under a floor of -Inf it can eliminate nothing.
		var ub func(*workflow.Workflow) float64
		if prep.bounded != nil && floor > math.Inf(-1) {
			ub = prep.bounded.UpperBounds(aProj)
		}
		for j := i + 1; j < len(union); j++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			if ub != nil && ub(proj[j]) < floor {
				scorer.bounded++
				continue
			}
			s, below, err := scorer.score(a, union[j], aProj, proj[j], true, floor)
			if below {
				continue
			}
			if err != nil {
				skipped.Add(1)
				continue
			}
			emit(i, j, s)
		}
		return nil
	})
	if err != nil {
		return ReadStats{}, err
	}
	stats := ReadStats{Skipped: int(skipped.Load())}
	for _, sc := range scorers {
		fill(sc, &stats)
	}
	return stats, nil
}

// Duplicates scans the view's global pair triangle for pairs scoring at or
// above threshold, which is also the walk's floor: a pair is kept iff its
// score reaches the threshold, so one that provably scores below it is never
// scored. The list is in SortPairs order; pairs are oriented A < B by ID, as
// the union is.
func (c *Coordinator) Duplicates(ctx context.Context, v View, prep *ScanPrep, threshold float64, par int) ([]search.Pair, ReadStats, error) {
	// One bucket per row: a row is scored by one worker, so the collection
	// needs no lock.
	union := v.Union()
	rows := make([][]search.Pair, len(union))
	stats, err := v.pairs(ctx, union, prep, par, threshold, func(i, j int, score float64) {
		if score < threshold {
			return
		}
		rows[i] = append(rows[i], search.Pair{A: union[i].ID, B: union[j].ID, Similarity: score})
	})
	if err != nil {
		return nil, ReadStats{}, err
	}
	out := slices.Concat(rows...)
	SortPairs(out)
	return out, stats, nil
}

// Matrix computes the full pairwise similarity matrix over the view's union
// (in ID order) for clustering, by the same walk — and therefore through the
// same caches — as Duplicates. Pairs the measure cannot score keep
// similarity 0 and are counted.
func (c *Coordinator) Matrix(ctx context.Context, v View, prep *ScanPrep, par int) (*cluster.Matrix, ReadStats, error) {
	union := v.Union()
	n := len(union)
	mat := &cluster.Matrix{IDs: make([]string, n), Sim: make([][]float64, n)}
	for i, wf := range union {
		mat.IDs[i] = wf.ID
		mat.Sim[i] = make([]float64, n)
		mat.Sim[i][i] = 1
	}
	// Each unordered pair is emitted once, so no two workers ever write the
	// same matrix cell.
	stats, err := v.pairs(ctx, union, prep, par, math.Inf(-1), func(i, j int, score float64) {
		mat.Sim[i][j] = score
		mat.Sim[j][i] = score
	})
	if err != nil {
		return nil, ReadStats{}, err
	}
	mat.Skipped = stats.Skipped
	return mat, stats, nil
}
