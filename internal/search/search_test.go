package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/measures"
	"repro/internal/module"
	"repro/internal/workflow"
)

func testCorpus(t *testing.T) *gen.Corpus {
	t.Helper()
	p := gen.Taverna()
	p.Workflows = 100
	p.Clusters = 6
	c, err := gen.Generate(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func msMeasure() measures.Measure {
	return measures.NewStructural(measures.Config{
		Topology:  measures.ModuleSets,
		Scheme:    module.PLL(),
		Normalize: true,
	})
}

func TestTopKBasic(t *testing.T) {
	snap := testCorpus(t).Repo.Snapshot()
	query := snap.Workflows()[0]
	results, skipped, err := TopK(context.Background(), query, snap, msMeasure(), Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d", skipped)
	}
	if len(results) != 10 {
		t.Fatalf("results = %d, want 10", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Similarity > results[i-1].Similarity {
			t.Fatal("results not sorted by similarity")
		}
	}
	for _, r := range results {
		if r.ID == query.ID {
			t.Error("query included in results")
		}
	}
}

func TestTopKIncludeQuery(t *testing.T) {
	snap := testCorpus(t).Repo.Snapshot()
	query := snap.Workflows()[0]
	results, _, _ := TopK(context.Background(), query, snap, msMeasure(), Options{K: 5, IncludeQuery: true})
	if results[0].ID != query.ID || results[0].Similarity != 1 {
		t.Errorf("top result = %+v, want the query itself at similarity 1", results[0])
	}
}

func TestTopKFindsClusterSiblings(t *testing.T) {
	c := testCorpus(t)
	snap := c.Repo.Snapshot()
	query := snap.Workflows()[0]
	meta := c.Truth.Meta[query.ID]
	results, _, _ := TopK(context.Background(), query, snap, msMeasure(), Options{K: 10})
	same := 0
	for _, r := range results {
		if c.Truth.Meta[r.ID].Cluster == meta.Cluster {
			same++
		}
	}
	if same < 5 {
		t.Errorf("only %d/10 top results from the query's cluster", same)
	}
}

func TestTopKDeterministic(t *testing.T) {
	snap := testCorpus(t).Repo.Snapshot()
	query := snap.Workflows()[3]
	r1, _, _ := TopK(context.Background(), query, snap, msMeasure(), Options{K: 10})
	r2, _, _ := TopK(context.Background(), query, snap, msMeasure(), Options{K: 10, Parallelism: 1})
	if len(r1) != len(r2) {
		t.Fatal("lengths differ")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

func TestTopKMinSimilarity(t *testing.T) {
	snap := testCorpus(t).Repo.Snapshot()
	query := snap.Workflows()[0]
	zero := 0.99
	results, _, _ := TopK(context.Background(), query, snap, msMeasure(), Options{K: 100, MinSimilarity: &zero})
	for _, r := range results {
		if r.Similarity <= zero {
			t.Errorf("result %v below threshold", r)
		}
	}
}

type failingMeasure struct{ failID string }

func (f failingMeasure) Name() string { return "fail" }
func (f failingMeasure) Compare(a, b *workflow.Workflow) (float64, error) {
	if b.ID == f.failID {
		return 0, errors.New("boom")
	}
	return 0.5, nil
}

func TestTopKSkipsErrors(t *testing.T) {
	snap := testCorpus(t).Repo.Snapshot()
	query := snap.Workflows()[0]
	failID := snap.Workflows()[1].ID
	results, skipped, _ := TopK(context.Background(), query, snap, failingMeasure{failID: failID}, Options{K: 1000})
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	for _, r := range results {
		if r.ID == failID {
			t.Error("failing pair included")
		}
	}
}

func TestIDsAndPool(t *testing.T) {
	a := []Result{{ID: "x", Similarity: 1}, {ID: "y", Similarity: 0.5}}
	b := []Result{{ID: "y", Similarity: 0.7}, {ID: "z", Similarity: 0.2}}
	if got := IDs(a); got[0] != "x" || got[1] != "y" {
		t.Errorf("IDs = %v", got)
	}
	pooled := PoolResults(a, b)
	want := []string{"x", "y", "z"}
	if len(pooled) != 3 {
		t.Fatalf("pooled = %v", pooled)
	}
	for i := range want {
		if pooled[i] != want[i] {
			t.Errorf("pooled = %v, want %v", pooled, want)
		}
	}
}

func BenchmarkTopK100Workflows(b *testing.B) {
	p := gen.Taverna()
	p.Workflows = 100
	p.Clusters = 6
	c, err := gen.Generate(p, 17)
	if err != nil {
		b.Fatal(err)
	}
	snap := c.Repo.Snapshot()
	query := snap.Workflows()[0]
	m := msMeasure()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopK(context.Background(), query, snap, m, Options{K: 10})
	}
}

func TestTopKCancelledContext(t *testing.T) {
	snap := testCorpus(t).Repo.Snapshot()
	query := snap.Workflows()[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, _, err := TopK(ctx, query, snap, msMeasure(), Options{K: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Errorf("results = %v, want nil on cancellation", results)
	}
}

func TestBatchedCoversAllIndexes(t *testing.T) {
	const n = 1000
	seen := make([]int32, n)
	err := Batched(context.Background(), n, 4, 7, func(_, i int) error {
		seen[i]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestBatchedWorkers: every index runs exactly once, every worker index lies
// in [0, Workers(n, par)), no two goroutines run as the same worker at once,
// and a pool of one runs on the caller's goroutine. An error or a cancelled
// context still stops the pool.
func TestBatchedWorkers(t *testing.T) {
	for _, tc := range []struct{ n, par, batch int }{
		{1000, 4, 7}, {1000, 2, 0}, {5, 8, 1}, {1, 3, 0}, {64, 1, 3},
	} {
		workers := Workers(tc.n, tc.par)
		if want := min(tc.par, tc.n); workers != want {
			t.Fatalf("Workers(%d, %d) = %d, want %d", tc.n, tc.par, workers, want)
		}
		seen := make([]atomic.Int32, tc.n)
		busy := make([]atomic.Bool, workers)
		err := Batched(context.Background(), tc.n, tc.par, tc.batch, func(w, i int) error {
			if w < 0 || w >= workers {
				return fmt.Errorf("worker %d outside [0, %d)", w, workers)
			}
			if !busy[w].CompareAndSwap(false, true) {
				return fmt.Errorf("worker %d running twice at once", w)
			}
			defer busy[w].Store(false)
			seen[i].Add(1)
			runtime.Gosched()
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d par=%d: %v", tc.n, tc.par, err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("n=%d par=%d: index %d visited %d times", tc.n, tc.par, i, c)
			}
		}
	}
	if got := Workers(0, 4); got != 0 {
		t.Errorf("Workers(0, 4) = %d, want 0", got)
	}
	if got := Workers(10, 0); got != min(runtime.GOMAXPROCS(0), 10) {
		t.Errorf("Workers(10, 0) = %d, want min(GOMAXPROCS, 10)", got)
	}

	before := runtime.NumGoroutine()
	err := Batched(context.Background(), 10, 1, 0, func(w, i int) error {
		if n := runtime.NumGoroutine(); n != before {
			return fmt.Errorf("%d goroutines inside a pool of one, %d before it", n, before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	var ran atomic.Int32
	if err := Batched(context.Background(), 1000, 4, 1, func(w, i int) error {
		ran.Add(1)
		if i == 10 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Errorf("err = %v, want the failing call's error", err)
	}
	if ran.Load() == 1000 {
		t.Error("the pool ran every index after an error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran.Store(0)
	if err := Batched(ctx, 1000, 4, 1, func(w, i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == 1000 {
		t.Error("the pool ran every index after cancellation")
	}
}

// errStop stops the pool without failing it: no worker claims another batch,
// and Batched returns nil unless a call failed.
func TestBatchedStop(t *testing.T) {
	ran := 0
	err := Batched(context.Background(), 100, 1, 4, func(_, i int) error {
		ran++
		if i == 9 {
			return errStop
		}
		return nil
	})
	if err != nil || ran != 10 {
		t.Fatalf("stopped at index 9: err = %v after %d calls, want nil after 10", err, ran)
	}
	boom := errors.New("boom")
	err = Batched(context.Background(), 100, 4, 1, func(_, i int) error {
		switch i {
		case 0:
			return boom
		case 1:
			return errStop
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("a failed call beside a stop: err = %v, want %v", err, boom)
	}
}

// A context that expires only after the final item was processed must not
// fail the scan: Batched returns nil iff fn ran for every index.
func TestBatchedCompletedScanSurvivesLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 3
	ran := 0
	err := Batched(ctx, n, 1, 1, func(_, i int) error {
		ran++
		if i == n-1 {
			cancel() // expires as the last item completes
		}
		return nil
	})
	if ran != n {
		t.Fatalf("fn ran %d times, want %d", ran, n)
	}
	if err != nil {
		t.Fatalf("err = %v, want nil for a completed scan", err)
	}
}

// bucketMeasure scores by a hash of the candidate's ID into a few buckets, so
// most results tie and the ID tie-break decides the order.
type bucketMeasure struct{ buckets int }

func (m bucketMeasure) Name() string { return "bucket" }
func (m bucketMeasure) Compare(_, b *workflow.Workflow) (float64, error) {
	h := 0
	for _, c := range b.ID {
		h = h*31 + int(c)
	}
	return float64(h%m.buckets) / float64(m.buckets), nil
}

// TestTopKSelectionIsSortedPrefix checks the streaming top-k selection
// against sorting every candidate, for k below, at and above the corpus size
// and with a similarity floor, on scores where ties dominate.
func TestTopKSelectionIsSortedPrefix(t *testing.T) {
	snap := testCorpus(t).Repo.Snapshot()
	wfs := snap.Workflows()
	// Scan in an order unrelated to ID order, so ties arrive unsorted.
	shuffled := make(List, len(wfs))
	for i, wf := range wfs {
		shuffled[(i*37)%len(wfs)] = wf
	}
	query := workflow.New("not-in-corpus")
	m := bucketMeasure{buckets: 4}
	floor := 0.25
	for _, minSim := range []*float64{nil, &floor} {
		var all []Result
		for _, wf := range shuffled {
			s, _ := m.Compare(query, wf)
			if minSim == nil || s > *minSim {
				all = append(all, Result{ID: wf.ID, Similarity: s})
			}
		}
		SortResults(all)
		for _, k := range []int{1, 3, 10, len(all) - 1, len(all), len(all) + 5} {
			got, _, err := TopK(context.Background(), query, shuffled, m, Options{K: k, MinSimilarity: minSim})
			if err != nil {
				t.Fatal(err)
			}
			want := all[:min(k, len(all))]
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d rank %d: %+v, want %+v", k, i, got[i], want[i])
				}
			}
		}
	}
}

// tightBucketMeasure is bucketMeasure with the tightest bound there is: it
// gives up on exactly the pairs that score below the floor, and counts them.
// A scan that ever treated "ties the floor" as "below the floor" loses
// results on these scores, where ties dominate.
type tightBucketMeasure struct {
	bucketMeasure
	below *atomic.Int64
}

func (m tightBucketMeasure) CompareFloor(a, b *workflow.Workflow, floor float64) (float64, bool, error) {
	s, err := m.Compare(a, b)
	if s < floor {
		m.below.Add(1)
		return s, true, err
	}
	return s, false, err
}

// TestTopKWithBoundIsSortedPrefix: a measure that refuses every pair below
// the scan's floor changes nothing about the result — for k below and above
// the corpus size, one worker or several, with MinSimilarity — and is asked
// to finish fewer pairs once the k best are known.
func TestTopKWithBoundIsSortedPrefix(t *testing.T) {
	snap := testCorpus(t).Repo.Snapshot()
	wfs := snap.Workflows()
	shuffled := make(List, len(wfs))
	for i, wf := range wfs {
		shuffled[(i*37)%len(wfs)] = wf
	}
	query := workflow.New("not-in-corpus")
	plain := bucketMeasure{buckets: 5}
	min := 0.2
	for _, minSim := range []*float64{nil, &min} {
		for _, par := range []int{1, 4} {
			for _, k := range []int{1, 3, 10, len(wfs), len(wfs) + 5} {
				opts := Options{K: k, MinSimilarity: minSim, Parallelism: par}
				want, _, err := TopK(context.Background(), query, shuffled, plain, opts)
				if err != nil {
					t.Fatal(err)
				}
				var below atomic.Int64
				got, _, err := TopK(context.Background(), query, shuffled, tightBucketMeasure{plain, &below}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("k=%d par=%d: %d results with a bound, %d without", k, par, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("k=%d par=%d rank %d: %+v with a bound, %+v without", k, par, i, got[i], want[i])
					}
				}
				if k <= 10 && below.Load() == 0 {
					t.Errorf("k=%d par=%d: the bound eliminated nothing", k, par)
				}
				if k >= len(wfs) && minSim == nil && below.Load() != 0 {
					t.Errorf("k=%d par=%d: %d pairs eliminated though every pair is a result", k, par, below.Load())
				}
			}
		}
	}
}

// TestTopKAnyVisitOrder: the k best do not depend on the order the
// candidates are visited in. Over seeded permutations of the corpus, visited
// in slice order or in descending order of a loose bound, at one worker and
// several, the result is the corpus-order one bit for bit, and every
// candidate is finished, proved below the floor by the measure, or left
// unscored by its bound — exactly once. Visiting in descending order of the
// tightest bound there is finishes no more pairs than corpus order.
func TestTopKAnyVisitOrder(t *testing.T) {
	ctx := context.Background()
	wfs := testCorpus(t).Repo.Snapshot().Workflows()
	query := workflow.New("not-in-corpus")
	plain := bucketMeasure{buckets: 5}
	score := func(wf *workflow.Workflow) float64 {
		s, _ := plain.Compare(query, wf)
		return s
	}
	// run returns the top-k of list and how many pairs the measure finished.
	run := func(list []*workflow.Workflow, k, par int, bound func(*workflow.Workflow) (float64, bool)) ([]Result, int) {
		t.Helper()
		var below, finished atomic.Int64
		m := tightBucketMeasure{plain, &below}
		res, skipped, bounded, err := TopKFunc(ctx, list, Options{K: k, Parallelism: par}, bound, func(_ int, wf *workflow.Workflow, floor float64) (float64, bool, error) {
			s, b, err := m.CompareFloor(query, wf, floor)
			if !b {
				finished.Add(1)
			}
			return s, b, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(finished.Load()+below.Load()) + bounded + skipped; got != len(list) {
			t.Fatalf("k=%d par=%d: %d finished + %d below + %d bounded + %d skipped = %d, want %d",
				k, par, finished.Load(), below.Load(), bounded, skipped, got, len(list))
		}
		if bound == nil && bounded != 0 {
			t.Fatalf("k=%d par=%d: %d bounded without a bound", k, par, bounded)
		}
		return res, int(finished.Load())
	}
	same := func(what string, got, want []Result) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Similarity) != math.Float64bits(want[i].Similarity) {
				t.Fatalf("%s rank %d: %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	tight := func(wf *workflow.Workflow) (float64, bool) { return score(wf), true }
	r := rand.New(rand.NewSource(37))
	for _, k := range []int{1, 10, len(wfs)} {
		want, corpusFinished := run(wfs, k, 1, nil)
		for seed := 0; seed < 20; seed++ {
			perm := slices.Clone(wfs)
			r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			// A loose bound: the score plus a slack of up to a bucket and a
			// half, drawn per candidate, so the bound order is neither the
			// score order nor the slice order.
			slack := make(map[string]float64, len(perm))
			for _, wf := range perm {
				slack[wf.ID] = r.Float64() * 0.3
			}
			loose := func(wf *workflow.Workflow) (float64, bool) { return score(wf) + slack[wf.ID], true }
			for _, par := range []int{1, 2, 4} {
				got, _ := run(perm, k, par, nil)
				same(fmt.Sprintf("k=%d permutation %d par=%d", k, seed, par), got, want)
				got, _ = run(perm, k, par, loose)
				same(fmt.Sprintf("k=%d permutation %d par=%d by a loose bound", k, seed, par), got, want)
				// Ties on the bound reach the floor out of ID order here.
				got, _ = run(perm, k, par, tight)
				same(fmt.Sprintf("k=%d permutation %d par=%d by the score", k, seed, par), got, want)
			}
		}
		for _, par := range []int{1, 2, 4} {
			got, finished := run(wfs, k, par, tight)
			same(fmt.Sprintf("k=%d par=%d by the score", k, par), got, want)
			if par == 1 && finished > corpusFinished {
				t.Errorf("k=%d: %d pairs finished in descending order of the score, %d in corpus order", k, finished, corpusFinished)
			}
		}
	}
}

// TestTopKOrderLeavesOut: a candidate the bound leaves out is neither
// visited nor counted, and a bound of NaN or +Inf, which puts nothing below
// any floor, leaves the result as it is.
func TestTopKOrderLeavesOut(t *testing.T) {
	ctx := context.Background()
	wfs := testCorpus(t).Repo.Snapshot().Workflows()
	query := workflow.New("not-in-corpus")
	plain := bucketMeasure{buckets: 5}
	out, odd := wfs[3].ID, wfs[7].ID
	want, _, err := TopK(ctx, query, List(wfs), plain, Options{K: len(wfs)})
	if err != nil {
		t.Fatal(err)
	}
	want = slices.DeleteFunc(want, func(r Result) bool { return r.ID == out })
	for _, oddBound := range []float64{math.NaN(), math.Inf(1)} {
		for _, k := range []int{1, 10, len(wfs)} {
			var below atomic.Int64
			m := tightBucketMeasure{plain, &below}
			bound := func(wf *workflow.Workflow) (float64, bool) {
				switch wf.ID {
				case out:
					return 0, false
				case odd:
					return oddBound, true
				}
				s, _ := plain.Compare(query, wf)
				return s, true
			}
			visited := 0
			got, skipped, bounded, err := TopKFunc(ctx, wfs, Options{K: k, Parallelism: 1}, bound, func(_ int, wf *workflow.Workflow, floor float64) (float64, bool, error) {
				if wf.ID == out {
					t.Fatalf("bound %v: the candidate left out was visited", oddBound)
				}
				visited++
				return m.CompareFloor(query, wf, floor)
			})
			if err != nil {
				t.Fatal(err)
			}
			if visited+bounded+skipped != len(wfs)-1 {
				t.Fatalf("bound %v k=%d: %d visited + %d bounded + %d skipped, want %d", oddBound, k, visited, bounded, skipped, len(wfs)-1)
			}
			if !slices.Equal(got, want[:min(k, len(want))]) {
				t.Fatalf("bound %v k=%d: %v, want %v", oddBound, k, got, want[:min(k, len(want))])
			}
		}
	}
}

// TestVisitOrderSort: the counting sort visits every candidate not left out
// once, bucket by bucket, one bucket's candidates in index order, and at every
// position rest bounds every bound from there on — whatever range the bounds
// span, a subnormal one, one that is not finite, or none.
func TestVisitOrderSort(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	r := rand.New(rand.NewSource(3))
	random := make([]float64, 300)
	for i := range random {
		random[i] = float64(r.Intn(40)) / float64(r.Intn(40)+1)
	}
	for name, ubs := range map[string][]float64{
		"random":    random,
		"counts":    {3, 7, 0, 12, 7, 1, 3, 3, 40, 2},
		"equal":     {0.5, 0.5, 0.5},
		"subnormal": {0, 5e-324, 1e-323, 0},
		"infinite":  {0.2, inf, 0.7, 0.1, inf},
		"left out":  {nan, 0.3, nan, 0.9},
		"all out":   {nan, nan},
		"none":      {},
		"negative":  {-3, 2, -1e300, 1e300},
	} {
		wfs := make([]*workflow.Workflow, len(ubs))
		index := make(map[*workflow.Workflow]int, len(ubs))
		for i := range wfs {
			wfs[i] = workflow.New(fmt.Sprint(i))
			index[wfs[i]] = i
		}
		bound := func(wf *workflow.Workflow) (float64, bool) {
			v := ubs[index[wf]]
			return v, v == v // NaN: left out
		}
		o := acquireOrder(len(ubs), 2)
		// Two workers, so the range is gathered from both.
		o.bounds(1, wfs, 0, len(ubs)/2, bound)
		o.bounds(0, wfs, len(ubs)/2, len(ubs), bound)
		n := o.sort()
		seen := map[int32]bool{}
		for p := 0; p < n; p++ {
			i := o.pos[p]
			if seen[i] || ubs[i] != ubs[i] {
				t.Fatalf("%s: position %d visits %d (seen before %v, bound %v)", name, p, i, seen[i], ubs[i])
			}
			seen[i] = true
			for q := p; q < n; q++ {
				if j := o.pos[q]; !(o.rest(int(i)) >= ubs[j]) {
					t.Fatalf("%s: rest %v at position %d, bound %v at %d", name, o.rest(int(i)), p, ubs[j], q)
				}
			}
			if p > 0 {
				prev := o.pos[p-1]
				if o.key[prev] > o.key[i] || o.key[prev] == o.key[i] && prev > i {
					t.Fatalf("%s: position %d holds %d (bucket %d) after %d (bucket %d)", name, p, i, o.key[i], prev, o.key[prev])
				}
			}
		}
		for i, v := range ubs {
			if v == v && !seen[int32(i)] {
				t.Fatalf("%s: candidate %d (bound %v) is never visited", name, i, v)
			}
		}
		o.release()
	}
}

// TestTopKSharedFloor: two scans over disjoint halves of a corpus that share
// a floor may each return less than their own top-k, but the merge of the two
// lists is the top-k of the whole — and the second scan, which starts under
// the first one's k-th score, finishes fewer pairs than it would alone.
func TestTopKSharedFloor(t *testing.T) {
	snap := testCorpus(t).Repo.Snapshot()
	wfs := snap.Workflows()
	query := wfs[0]
	ms := msMeasure()
	const k = 5
	want, _, err := TopK(context.Background(), query, List(wfs), ms, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	half := len(wfs) / 2
	floor := NewFloor()
	var merged []Result
	for _, part := range []List{wfs[:half], wfs[half:]} {
		res, _, err := TopK(context.Background(), query, part, ms, Options{K: k, Floor: floor})
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, res...)
	}
	SortResults(merged)
	if len(merged) < k {
		t.Fatalf("%d results from both halves, want at least %d", len(merged), k)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Fatalf("rank %d: %+v merged, %+v over the whole corpus", i, merged[i], want[i])
		}
	}
	if got := floor.Load(); got > want[k-1].Similarity {
		t.Errorf("floor %v ended above the k-th similarity %v", got, want[k-1].Similarity)
	}
}

func TestFloorOnlyRises(t *testing.T) {
	f := NewFloor()
	if got := f.Load(); !math.IsInf(got, -1) {
		t.Fatalf("new floor = %v, want -Inf", got)
	}
	for _, v := range []float64{-3, 0.5, 0.2, math.NaN(), math.Inf(-1)} {
		f.Raise(v)
	}
	if got := f.Load(); got != 0.5 {
		t.Errorf("floor = %v after raising to -3, 0.5, 0.2, NaN, -Inf; want 0.5", got)
	}
}
