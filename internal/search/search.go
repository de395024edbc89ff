// Package search provides similarity search over a workflow repository:
// scoring a query workflow against every repository workflow with a
// configurable similarity measure, in parallel, and returning the top-k
// results — the retrieval operation evaluated in Section 5.2 of Starlinger
// et al. (PVLDB 2014).
//
// All scans are context-aware: a cancelled or expired context stops the
// worker pool promptly and the scan returns the context's error. The paper's
// GED-timeout semantics ("disregard pairs that exceed the budget") map onto
// per-pair measure errors; whole-scan deadlines map onto context deadlines.
package search

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/measures"
	"repro/internal/workflow"
)

// Corpus is the minimal read view a scan needs. Both the mutable
// corpus.Repository and its immutable, generation-pinned corpus.Snapshot
// satisfy it; scans that must not observe concurrent mutation should be
// handed a pinned Snapshot.
type Corpus interface {
	// Workflows returns the workflows in repository order. Callers must
	// not modify the returned slice.
	Workflows() []*workflow.Workflow
}

// List adapts a plain workflow slice (e.g. an index's candidate capture) to
// Corpus.
type List []*workflow.Workflow

// Workflows implements Corpus.
func (l List) Workflows() []*workflow.Workflow { return l }

// Result is one search hit.
type Result struct {
	ID         string
	Similarity float64
}

// Options configures a search.
type Options struct {
	// K is the number of results to return (default 10, the paper's top-10).
	K int
	// Parallelism bounds the scoring workers (default GOMAXPROCS).
	Parallelism int
	// BatchSize is the number of workflows a worker claims per scheduling
	// step (0 = automatic). Larger batches amortize scheduling overhead on
	// cheap measures; batch size 1 load-balances expensive ones.
	BatchSize int
	// IncludeQuery keeps the query workflow itself in the results
	// (off by default: a workflow trivially matches itself).
	IncludeQuery bool
	// MinSimilarity drops results scoring at or below the threshold.
	// The zero value drops nothing (scores can be negative for
	// unnormalized GE).
	MinSimilarity *float64
}

// Batched distributes the index range [0,n) over a pool of par workers in
// contiguous batches claimed from a shared atomic cursor (dynamic
// scheduling). fn is invoked once per index; the context is checked between
// invocations and the pool drains early when it is cancelled or when fn
// returns an error (multi-item tasks report mid-task cancellation that
// way). Batched returns nil iff fn ran to completion for every index — a
// context that expires only after the last invocation does not fail an
// already-complete scan; otherwise it returns the first error observed.
func Batched(ctx context.Context, n, par, batch int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if batch <= 0 {
		// Aim for several claims per worker so stragglers rebalance.
		batch = n / (par * 8)
		if batch < 1 {
			batch = 1
		}
		if batch > 64 {
			batch = 64
		}
	}
	var cursor atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		stop.Store(true)
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				start := int(cursor.Add(int64(batch))) - batch
				if start >= n {
					return
				}
				end := start + batch
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					if err := ctx.Err(); err != nil {
						fail(err)
						return
					}
					if err := fn(i); err != nil {
						fail(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// TopK scores query against every workflow in repo using m and returns the
// k best results, ties broken by ID for determinism. Pairs for which the
// measure errors (e.g. GED timeouts) are skipped, mirroring the paper's
// treatment of incomputable pairs; the number of skipped pairs is returned.
// A cancelled or expired context aborts the scan: TopK then returns nil
// results and the context's error.
//
//wfsimvet:hotpath
func TopK(ctx context.Context, query *workflow.Workflow, repo Corpus, m measures.Measure, opts Options) ([]Result, int, error) {
	k := opts.K
	if k <= 0 {
		k = 10
	}
	wfs := repo.Workflows()

	type scored struct {
		res  Result
		ok   bool
		skip bool
	}
	out := make([]scored, len(wfs))
	err := Batched(ctx, len(wfs), opts.Parallelism, opts.BatchSize, func(i int) error {
		wf := wfs[i]
		if !opts.IncludeQuery && wf.ID == query.ID {
			return nil
		}
		s, err := m.Compare(query, wf)
		if err != nil {
			out[i] = scored{skip: true}
			return nil
		}
		out[i] = scored{res: Result{ID: wf.ID, Similarity: s}, ok: true}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	// Select the k best as they stream by instead of sorting every
	// candidate: top holds at most k results in SortResults order, and a
	// result enters only if it precedes the current k-th. The order is total
	// (IDs are unique within a corpus), so this is the sorted prefix exactly.
	top := make([]Result, 0, min(k, len(wfs)))
	skipped := 0
	for _, s := range out {
		switch {
		case s.skip:
			skipped++
		case s.ok:
			if opts.MinSimilarity != nil && s.res.Similarity <= *opts.MinSimilarity {
				continue
			}
			if len(top) == k {
				if !precedes(s.res, top[k-1]) {
					continue
				}
				top = top[:k-1]
			}
			at := len(top)
			for at > 0 && precedes(s.res, top[at-1]) {
				at--
			}
			top = slices.Insert(top, at, s.res)
		}
	}
	return top, skipped, nil
}

// precedes is the result order: descending similarity, ties broken by ID.
func precedes(a, b Result) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	return a.ID < b.ID
}

// SortResults orders results by descending similarity, ties broken by ID.
func SortResults(results []Result) {
	sort.Slice(results, func(i, j int) bool { return precedes(results[i], results[j]) })
}

// IDs extracts the result IDs in rank order.
func IDs(results []Result) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.ID
	}
	return out
}

// PoolResults merges several algorithms' result lists for the same query
// into a deduplicated union, preserving first-seen order — the merged lists
// presented to the raters in the paper's second experiment (21–68 elements
// depending on overlap).
func PoolResults(lists ...[]Result) []string {
	seen := map[string]bool{}
	var out []string
	for _, list := range lists {
		for _, r := range list {
			if !seen[r.ID] {
				seen[r.ID] = true
				out = append(out, r.ID)
			}
		}
	}
	return out
}

// Pair is a scored workflow pair.
type Pair struct {
	A, B       string
	Similarity float64
}
