package wfsim

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestSharedFloorConcurrentSearches runs many bound-pruned searches at once
// on a 3-shard engine with a small cache: within one search the shards raise
// and read one floor from all their workers, and across searches they fill
// and evict the same caches. Every result must be the head of the full
// ranking computed up front. Run under -race -count=10 in CI.
func TestSharedFloorConcurrentSearches(t *testing.T) {
	ctx := context.Background()
	stored, held := goldenCorpus(t)
	eng := goldenEngine(t, stored, WithShards(3), WithScoreCache(512), WithConcurrency(4))
	type query struct {
		search func(k int) ([]Result, Stats, error)
		full   []Result
	}
	var queries []query
	for i := 0; i < 6; i++ {
		q, id := held[i], stored[i*7].ID
		for _, search := range []func(int) ([]Result, Stats, error){
			func(k int) ([]Result, Stats, error) { return eng.Search(ctx, q.Clone(), SearchOptions{K: k}) },
			func(k int) ([]Result, Stats, error) { return eng.SearchID(ctx, id, SearchOptions{K: k}) },
		} {
			full, _, err := search(eng.Read().Frontier().Workflows)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, query{search, full})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				for i := range queries {
					q := queries[(i+g*3)%len(queries)]
					k := []int{1, 3, 10}[(round+i)%3]
					got, stats, err := q.search(k)
					if err != nil {
						t.Error(err)
						return
					}
					if diff := sameResults(got, q.full[:k]); diff != "" {
						t.Errorf("goroutine %d, top-%d: %s", g, k, diff)
						return
					}
					// The full ranking lists every pair a search covers.
					if got, want := covered(stats), len(q.full); got != want {
						t.Errorf("goroutine %d, top-%d: %d pairs covered, want %d", g, k, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSearchAccountingIsExact: every worker of a scan counts into its own
// scorer and the counts are summed once the pool drains, so the stats of a
// search by ID are exact at every shard count and pool width — every other
// live workflow is scored, bounded, pruned or skipped exactly once, and a
// scored pair of the engine's own workflows is a cache hit or a miss.
func TestSearchAccountingIsExact(t *testing.T) {
	ctx := context.Background()
	stored, _ := goldenCorpus(t)
	for _, shards := range []int{1, 2, 5} {
		for _, par := range []int{1, 2, 4} {
			eng := goldenEngine(t, stored, WithShards(shards), WithConcurrency(par), WithScoreCache(1<<14))
			for round := 0; round < 2; round++ { // cold cache, then warm
				for i := 0; i < len(stored); i += 7 {
					for _, k := range []int{1, 10} {
						_, st, err := eng.SearchID(ctx, stored[i].ID, SearchOptions{K: k})
						if err != nil {
							t.Fatal(err)
						}
						if got, want := covered(st), eng.Read().Frontier().Workflows-1; got != want {
							t.Fatalf("shards=%d par=%d top-%d of %s: scored %d + bounded %d + pruned %d + skipped %d = %d, want %d",
								shards, par, k, stored[i].ID, st.Scored, st.Bounded, st.Pruned, st.Skipped, got, want)
						}
						if st.CacheHits+st.CacheMisses != st.Scored {
							t.Fatalf("shards=%d par=%d top-%d of %s: %d hits + %d misses, %d scored",
								shards, par, k, stored[i].ID, st.CacheHits, st.CacheMisses, st.Scored)
						}
					}
				}
			}
		}
	}
}

// TestIndexedNamesakeIsNotPruned: an inline query under a live ID leaves
// its namesake out, and a search the index serves does not count that
// namesake as pruned when the index does not propose it: the four counts
// still cover every live workflow but the namesake, at every shard count.
func TestIndexedNamesakeIsNotPruned(t *testing.T) {
	stored, held := goldenCorpus(t)
	q := withID(held[0], stored[0].ID)
	for i, mod := range q.Modules {
		mod.Label = fmt.Sprintf("label no stored workflow has %d", i)
	}
	for _, shards := range []int{1, 2, 5} {
		eng := goldenEngine(t, stored, WithShards(shards), WithIndex(1))
		_, st, err := eng.Search(context.Background(), q, SearchOptions{Measure: "BW", K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := covered(st), len(stored)-1; got != want || st.Pruned == 0 {
			t.Fatalf("shards=%d: scored %d + bounded %d + pruned %d + skipped %d = %d, want %d with some pruned",
				shards, st.Scored, st.Bounded, st.Pruned, st.Skipped, got, want)
		}
	}
}

// TestBoundOrderCutsEvaluations: a search under the default measure visits
// its candidates in descending order of their score bound, so the k-th best
// score is near its final value after a few pairs and most candidates are
// left unscored. On BenchmarkSearchInline's corpus and queries, which no
// cache holds, a top-10 search scores at most 100 of its 2 000 candidates on
// average (about 76 at one worker; in corpus order, about 260), and every
// candidate is scored, bounded or skipped exactly once, at one worker and at
// two.
func TestBoundOrderCutsEvaluations(t *testing.T) {
	ctx := context.Background()
	repo := benchCorpusN(t, 2000).Repo
	queries := inlineQueries(t)
	for _, par := range []int{1, 2} {
		eng, err := New(repo, WithConcurrency(par))
		if err != nil {
			t.Fatal(err)
		}
		n := eng.Read().Frontier().Workflows
		scored := 0
		for _, q := range queries {
			_, st, err := eng.Search(ctx, q, SearchOptions{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			if got := covered(st); got != n {
				t.Fatalf("par=%d %s: scored %d + bounded %d + pruned %d + skipped %d = %d, want %d",
					par, q.ID, st.Scored, st.Bounded, st.Pruned, st.Skipped, got, n)
			}
			scored += st.Scored
		}
		mean := float64(scored) / float64(len(queries))
		t.Logf("par=%d: %.1f pairs scored per search", par, mean)
		if mean > 100 {
			t.Errorf("par=%d: %.1f pairs scored per search, want at most 100", par, mean)
		}
	}
}

// TestSearchLeavesQueryOut: a search leaves out the corpus workflow that
// carries the query's ID — an inline query under a stored ID included, at one
// shard and two — unless IncludeQuery keeps it; and a search over the index's
// candidates (BW has no score bound) leaves it out as well.
func TestSearchLeavesQueryOut(t *testing.T) {
	ctx := context.Background()
	stored, held := goldenCorpus(t)
	id := stored[9].ID
	inline := held[0].Clone()
	inline.ID = id
	for _, shards := range []int{1, 2} {
		for _, index := range []bool{false, true} {
			opts := []Option{WithShards(shards)}
			measure := ""
			if index {
				opts, measure = append(opts, WithIndex(1)), "BW"
			}
			eng := goldenEngine(t, stored, opts...)
			n := eng.Read().Frontier().Workflows
			for name, search := range map[string]func(SearchOptions) ([]Result, Stats, error){
				"inline": func(o SearchOptions) ([]Result, Stats, error) { return eng.Search(ctx, inline, o) },
				"id":     func(o SearchOptions) ([]Result, Stats, error) { return eng.SearchID(ctx, id, o) },
			} {
				res, st, err := search(SearchOptions{K: n, Measure: measure})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range res {
					if r.ID == id {
						t.Fatalf("shards=%d index=%v %s: %s is a result", shards, index, name, id)
					}
				}
				if got := covered(st); got != n-1 {
					t.Errorf("shards=%d index=%v %s: %d pairs covered, want %d", shards, index, name, got, n-1)
				}
				if !index && len(res) != n-1 {
					t.Errorf("shards=%d %s: %d results, want every other workflow (%d)", shards, name, len(res), n-1)
				}
				res, _, err = search(SearchOptions{K: n, Measure: measure, IncludeQuery: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(res) != n || !slices.ContainsFunc(res, func(r Result) bool { return r.ID == id }) {
					t.Errorf("shards=%d index=%v %s: IncludeQuery gave %d results without %s, want all %d", shards, index, name, len(res), id, n)
				}
			}
		}
	}
}
