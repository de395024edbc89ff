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
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/measures"
	"repro/internal/workflow"
)

// Corpus is the minimal read view a scan needs: a pinned corpus.Snapshot, or
// a List. The mutable corpus.Repository has no read API, so a scan cannot be
// handed one and observe a concurrent mutation halfway through.
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
	// IncludeQuery keeps the query workflow itself in the results
	// (off by default: a workflow trivially matches itself).
	IncludeQuery bool
	// MinSimilarity drops results scoring at or below the threshold.
	// The zero value drops nothing (scores can be negative for
	// unnormalized GE).
	MinSimilarity *float64
	// Floor, when non-nil, is shared with other TopK calls that answer one
	// query over disjoint parts of a corpus and whose results will be merged
	// into one top-k: each call then also drops what another call's k-th
	// result already beats, so its own list may be shorter than its local
	// top-k, while the merged top-k is unchanged. Nil gives the call a floor
	// of its own.
	Floor *Floor
}

// Floor is the lowest similarity a result can have and still reach the k
// best of a search: the k-th best similarity seen so far (-Inf until k
// results exist). It only rises, and workers read it without a lock. A pair
// whose score is provably below the floor need not be scored (see
// measures.Bounded); one that merely ties it still must be, because ties are
// broken by ID.
type Floor struct {
	bits atomic.Uint64 // math.Float64bits of the floor
}

// NewFloor returns a floor at -Inf.
func NewFloor() *Floor {
	f := new(Floor)
	f.bits.Store(math.Float64bits(math.Inf(-1)))
	return f
}

// Load returns the current floor.
//
//wfsimvet:hotpath
func (f *Floor) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Raise lifts the floor to v if v is higher.
func (f *Floor) Raise(v float64) {
	for {
		old := f.bits.Load()
		if !(v > math.Float64frombits(old)) || f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Workers returns the number of workers Batched runs for n indexes under a
// parallelism bound of par (GOMAXPROCS when par <= 0): the worker indexes it
// hands out lie in [0, Workers(n, par)).
func Workers(n, par int) int {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return max(min(par, n), 0)
}

// Batched distributes the index range [0,n) over a pool of Workers(n, par)
// workers in contiguous batches claimed from a shared atomic cursor (dynamic
// scheduling). fn(w, i) is invoked once per index i by worker w; the calling
// goroutine is worker 0 and the others get their own goroutines, so a pool of
// one starts none. Calls with the same w never overlap, so per-worker state
// indexed by w needs no synchronisation. The context is checked between
// invocations and the pool drains early when it is cancelled or when fn
// returns an error (multi-item tasks report mid-task cancellation that way).
// Batched returns nil iff fn ran to completion for every index — a context
// that expires only after the last invocation does not fail an
// already-complete scan; otherwise it returns the first error observed.
//
// Within the package, fn may instead return errStop: the pool then drains as
// for an error, no worker claims another batch, and Batched returns nil
// unless something else failed. The indexes left unrun are the caller's to
// account for.
func Batched(ctx context.Context, n, par, batch int, fn func(w, i int) error) error {
	par = Workers(n, par)
	if par == 0 {
		return nil
	}
	if batch <= 0 {
		// Aim for several claims per worker so stragglers rebalance.
		batch = min(max(n/(par*8), 1), 64)
	}
	// Polling the channel costs a load per item; ctx.Err() would take the
	// context's mutex — two of them under a deadline — per item.
	done := ctx.Done()
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
	work := func(w int) {
		for !stop.Load() {
			start := int(cursor.Add(int64(batch))) - batch
			if start >= n {
				return
			}
			for i := start; i < min(start+batch, n); i++ {
				select {
				case <-done:
					fail(ctx.Err())
					return
				default:
				}
				if err := fn(w, i); err == errStop {
					stop.Store(true)
					return
				} else if err != nil {
					fail(err)
					return
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// floorComparer is the half of measures.Bounded that scores under a floor.
type floorComparer interface {
	CompareFloor(a, b *workflow.Workflow, floor float64) (score float64, below bool, err error)
}

// TopK scores query against every workflow in repo using m and returns the
// k best results, ties broken by ID for determinism. Pairs for which the
// measure errors (e.g. GED timeouts) are skipped, mirroring the paper's
// treatment of incomputable pairs; the number of skipped pairs is returned.
// A cancelled or expired context aborts the scan: TopK then returns nil
// results and the context's error.
//
// A measure that can score under a floor is asked to score a pair unless it
// can prove that the pair falls below the scan's floor; one with an exact
// score bound (measures.Bounded) also has its candidates visited in
// descending order of their bound (see TopKFunc). Every other measure scores
// every pair, in corpus order.
func TopK(ctx context.Context, query *workflow.Workflow, repo Corpus, m measures.Measure, opts Options) ([]Result, int, error) {
	floored, _ := m.(floorComparer)
	var bound func(wf *workflow.Workflow) (float64, bool)
	if b, ok := m.(measures.Bounded); ok {
		ub := b.UpperBounds(query)
		bound = func(wf *workflow.Workflow) (float64, bool) {
			if !opts.IncludeQuery && wf.ID == query.ID {
				return 0, false
			}
			return ub(wf), true
		}
	}
	res, skipped, _, err := TopKFunc(ctx, repo.Workflows(), opts, bound, func(_ int, wf *workflow.Workflow, floor float64) (float64, bool, error) {
		if !opts.IncludeQuery && wf.ID == query.ID {
			return 0, true, nil
		}
		if floored != nil {
			return floored.CompareFloor(query, wf, floor)
		}
		s, err := m.Compare(query, wf)
		return s, false, err
	})
	return res, skipped, err
}

// TopKFunc returns the k best of wfs as scored by score, ties broken by ID;
// TopK is TopKFunc over one measure. score(w, wf, floor) runs on worker w of
// the scan's Batched pool, so it may keep per-worker state indexed by w
// (Workers(len(wfs), opts.Parallelism) of them). It returns wf's similarity,
// or below = true for a candidate that is no result: one provably scoring
// under floor, or one the caller leaves out (opts.IncludeQuery is the
// caller's to apply). A candidate score fails on is skipped and counted.
//
// The k best are kept as the candidates are scored, and the k-th similarity so
// far is published as the scan's floor. The result does not depend on what
// score gives up on under a floor, nor on the order candidates are visited
// in: a candidate among the final k best scores at least the final k-th
// similarity, which no floor ever exceeds, so it is never proved below one,
// and the k best of a set are the k best whatever order they arrive in.
//
// bound, when non-nil, is an upper bound on each candidate's score, or
// ok = false for a candidate the caller leaves out (it is then neither
// visited nor counted). It is computed once per candidate, on the scan's own
// pool, before any is scored. The candidates are then visited in descending
// order of their bound, so the floor rises early; one whose bound is under
// the floor when its turn comes is not handed to score, and the scan stops
// as soon as no bound left is at or above the floor. bounded counts the
// candidates left unscored that way. With a nil bound, wfs is visited in
// order and bounded is 0.
//
//wfsimvet:hotpath
func TopKFunc(ctx context.Context, wfs []*workflow.Workflow, opts Options, bound func(wf *workflow.Workflow) (ub float64, ok bool), score func(w int, wf *workflow.Workflow, floor float64) (s float64, below bool, err error)) (top []Result, skipped, bounded int, err error) {
	k := opts.K
	if k <= 0 {
		k = 10
	}
	floor := opts.Floor
	if floor == nil {
		floor = NewFloor()
	}
	if opts.MinSimilarity != nil {
		floor.Raise(*opts.MinSimilarity)
	}

	n := len(wfs)
	var ord *visitOrder
	if bound != nil {
		ord = acquireOrder(n, Workers(n, opts.Parallelism))
		defer ord.release()
		// In chunks: a bound costs a loop iteration, not a pool hand-off.
		err := Batched(ctx, (n+orderChunk-1)/orderChunk, opts.Parallelism, 1, func(w, c int) error {
			ord.bounds(w, wfs, c*orderChunk, min((c+1)*orderChunk, n), bound)
			return nil
		})
		if err != nil {
			return nil, 0, 0, err
		}
		n = ord.sort()
	}

	// top holds at most k results in SortResults order; a result enters only
	// if it precedes the current k-th. The order is total (IDs are unique
	// within a corpus), so top is the sorted prefix of everything scored so
	// far, whatever order the workers deliver it in.
	var mu sync.Mutex
	top = make([]Result, 0, min(k, n))
	err = Batched(ctx, n, opts.Parallelism, 0, func(w, i int) error {
		if ord != nil {
			i = int(ord.pos[i])
			f := floor.Load()
			if ord.rest(i) < f {
				return errStop // and every later candidate is bounded below f
			}
			if ord.ub[i] < f {
				return nil
			}
			ord.workers[w].scored++
		}
		wf := wfs[i]
		s, below, err := score(w, wf, floor.Load())
		if below {
			return nil
		}
		if err != nil {
			mu.Lock()
			skipped++
			mu.Unlock()
			return nil
		}
		if opts.MinSimilarity != nil && s <= *opts.MinSimilarity || s < floor.Load() {
			return nil
		}
		res := Result{ID: wf.ID, Similarity: s}
		mu.Lock()
		defer mu.Unlock()
		if len(top) == k {
			if !precedes(res, top[k-1]) {
				return nil
			}
			top = top[:k-1]
		}
		at := len(top)
		for at > 0 && precedes(res, top[at-1]) {
			at--
		}
		top = slices.Insert(top, at, res)
		if len(top) == k {
			floor.Raise(top[k-1].Similarity)
		}
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if ord != nil {
		bounded = n
		for _, wk := range ord.workers {
			bounded -= wk.scored
		}
	}
	return top, skipped, bounded, nil
}

// errStop stops a Batched pool without failing it (see Batched).
var errStop = errors.New("search: pool stopped")

// orderBuckets is the number of buckets a visiting order sorts bounds into,
// and orderChunk the number of bounds a worker computes per claim.
const (
	orderBuckets = 256
	orderChunk   = 64
)

// visitOrder is a scan's visiting order by descending bound: a stable
// counting sort on the bound quantised into orderBuckets buckets over the
// range the bounds span. Its buffers hold no pointers and are pooled, so
// ordering a scan allocates nothing once the pool is warm.
type visitOrder struct {
	// by candidate index: the bound pass's bounds (NaN marks a candidate the
	// caller left out) and the bucket sort puts each in
	ub  []float64
	key []uint8
	// by visiting position: the candidate's index
	pos []int32
	// per bucket: its size, then the next free position in it; and its
	// largest bound
	count [orderBuckets]int32
	max   [orderBuckets]float64
	// per worker of the scan's pools
	workers []orderWorker
}

// orderWorker is one worker's share of a visitOrder, on a cache line of its
// own: the range of the bounds it computed, then the number of candidates it
// handed to score.
type orderWorker struct {
	lo, hi float64
	scored int
	_      [40]byte
}

var orderPool = sync.Pool{New: func() any { return new(visitOrder) }}

// acquireOrder returns a pooled order with room for n candidates, visited by
// a pool of workers.
func acquireOrder(n, workers int) *visitOrder {
	o := orderPool.Get().(*visitOrder)
	if cap(o.ub) < n {
		o.ub = make([]float64, n)
		o.key = make([]uint8, n)
		o.pos = make([]int32, n)
	}
	o.ub, o.key, o.pos = o.ub[:n], o.key[:n], o.pos[:n]
	if cap(o.workers) < workers {
		o.workers = make([]orderWorker, workers)
	}
	o.workers = o.workers[:workers]
	for w := range o.workers {
		o.workers[w] = orderWorker{lo: math.Inf(1), hi: math.Inf(-1)}
	}
	return o
}

func (o *visitOrder) release() { orderPool.Put(o) }

// bounds computes, on worker w, the bounds of candidates from to to-1 of
// wfs. A NaN bound, which no floor is above, is kept as +Inf, leaving NaN to
// mark the candidates left out.
//
//wfsimvet:hotpath
func (o *visitOrder) bounds(w int, wfs []*workflow.Workflow, from, to int, bound func(*workflow.Workflow) (float64, bool)) {
	wk := &o.workers[w]
	lo, hi := wk.lo, wk.hi
	for i := from; i < to; i++ {
		ub, ok := bound(wfs[i])
		switch {
		case !ok:
			o.ub[i] = math.NaN()
			continue
		case ub != ub:
			ub = math.Inf(1)
		}
		o.ub[i] = ub
		if ub < lo {
			lo = ub
		}
		if ub > hi {
			hi = ub
		}
	}
	wk.lo, wk.hi = lo, hi
}

// sort lays the candidates out in visiting order and returns how many there
// are to visit. Bucket 0 holds the highest bounds. A candidate's bucket is a
// monotone function of its bound in float64 (a subtraction, a multiplication
// and a truncation, each order-preserving), so every bound in a later bucket
// is at most every bound in an earlier one, and a bucket's maximum bounds
// everything from the bucket on. Candidates of one bucket keep their index
// order.
//
//wfsimvet:hotpath
func (o *visitOrder) sort() int {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, wk := range o.workers {
		lo, hi = min(lo, wk.lo), max(hi, wk.hi)
	}
	scale := (orderBuckets - 1) / (hi - lo)
	if !(scale > 0 && scale < math.Inf(1)) {
		scale = 0 // one bucket: the bounds span no finite, positive range
	}
	clear(o.count[:])
	for b := range o.max {
		o.max[b] = math.Inf(-1)
	}
	key := o.key[:len(o.ub)]
	for i, v := range o.ub {
		if v != v {
			continue
		}
		var b uint8
		if scale != 0 {
			b = uint8(min(int((hi-v)*scale), orderBuckets-1))
		}
		key[i] = b
		o.count[b]++
		if v > o.max[b] {
			o.max[b] = v
		}
	}
	var n int32
	for b, c := range o.count {
		o.count[b] = n // from here on, the bucket's next position
		n += c
	}
	pos := o.pos[:n]
	for i, v := range o.ub {
		if v != v {
			continue
		}
		b := key[i]
		pos[o.count[b]] = int32(i)
		o.count[b]++
	}
	return int(n)
}

// rest returns the largest bound at candidate i's visiting position or after
// it: the real maximum of i's bucket, not the bucket's edge.
//
//wfsimvet:hotpath
func (o *visitOrder) rest(i int) float64 { return o.max[o.key[i]] }

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
