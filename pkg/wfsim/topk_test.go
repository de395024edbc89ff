package wfsim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// TestTopKIsPrefixOfFullRanking is the differential test of bound-driven
// top-k: a search that asks for as many results as the corpus holds never
// has a k-th best to prune against, so it scores every pair, and a search
// for the k best must return exactly its first k — IDs and score bits. It
// runs the golden file's measures and queries (a sixth of them per engine,
// all of them over the engines), inline and by ID, over every engine shape
// (shards × index × cache × repository knowledge) and search option that
// changes the path a pair takes, and holds every call to the
// stats invariant: scored + bounded + pruned + skipped pairs are the live
// workflows, less the query.
func TestTopKIsPrefixOfFullRanking(t *testing.T) {
	ctx := context.Background()
	stored, held := goldenCorpus(t)
	minSim := 0.3
	bounded := map[string]int{} // measure -> pairs eliminated, over the whole test

	for _, shards := range []int{1, 2, 5} {
		for shape := 0; shape < 8; shape++ {
			index, cache, repoKnow := shape&1 != 0, shape&2 != 0, shape&4 != 0
			opts := []Option{WithShards(shards)}
			if index {
				opts = append(opts, WithIndex(2))
			}
			if cache {
				opts = append(opts, WithScoreCache(1<<14))
			}
			if repoKnow {
				opts = append(opts, WithRepositoryKnowledge(0))
			}
			eng := goldenEngine(t, stored, opts...)
			name := fmt.Sprintf("shards=%d index=%v cache=%v repoknow=%v", shards, index, cache, repoKnow)

			for _, m := range goldenMeasures {
				// Path Sets and Graph Edit have no bound: they only have to
				// come through the same loop unharmed, and are slow — Graph
				// Edit so slow that one engine has to do.
				slow := m[:2] != "MS"
				if slow && shape != 2 && shape != 5 || m[:2] == "GE" && (shape != 2 || shards != 2) {
					continue
				}
				type query struct {
					name   string
					inCorp bool
					search func(SearchOptions) ([]Result, Stats, error)
				}
				var queries []query
				for i := (shards + shape) % 6; i < 12; i += 6 {
					if slow && len(queries) > 0 {
						break
					}
					q, id := held[i], stored[i*5].ID
					queries = append(queries,
						query{"inline " + q.ID, false, func(so SearchOptions) ([]Result, Stats, error) { return eng.Search(ctx, q.Clone(), so) }},
						query{"id " + id, true, func(so SearchOptions) ([]Result, Stats, error) { return eng.SearchID(ctx, id, so) }})
				}
				for _, q := range queries {
					for _, variant := range []SearchOptions{{}, {IncludeQuery: true}, {MinSimilarity: &minSim}, {Exact: true}} {
						if slow && variant != (SearchOptions{}) {
							continue
						}
						variant.Measure = m
						search := func(so SearchOptions) []Result {
							t.Helper()
							res, stats, err := q.search(so)
							if err != nil {
								t.Fatalf("%s, %s, %s, %+v: %v", name, m, q.name, so, err)
							}
							want := eng.Read().Frontier().Workflows
							if q.inCorp && !so.IncludeQuery {
								want--
							}
							if covered(stats) != want {
								t.Fatalf("%s, %s, %s, %+v: scored %d + bounded %d + pruned %d + skipped %d, want %d pairs",
									name, m, q.name, so, stats.Scored, stats.Bounded, stats.Pruned, stats.Skipped, want)
							}
							if indexed := index && so == (SearchOptions{Measure: m, K: so.K}); !indexed && stats.Pruned != 0 {
								t.Fatalf("%s, %s, %s, %+v: a full scan pruned %d", name, m, q.name, so, stats.Pruned)
							}
							bounded[m] += stats.Bounded
							return res
						}
						// The k-bounded searches first, so that with a cache
						// they run cold, prune, and leave the cache to the
						// later ones half-filled.
						var got [][]Result
						for _, k := range []int{1, 3, 10} {
							so := variant
							so.K = k
							got = append(got, search(so))
						}
						// The reference: every pair scored. A MinSimilarity
						// would start the floor above some pairs' bound, so
						// it is applied to the list instead — over the full
						// scan it forces.
						full := variant
						full.K = eng.Read().Frontier().Workflows
						if full.MinSimilarity != nil {
							full.MinSimilarity, full.Exact = nil, true
						}
						all := search(full)
						if variant.MinSimilarity != nil {
							kept := all[:0:0]
							for _, r := range all {
								if r.Similarity > minSim {
									kept = append(kept, r)
								}
							}
							all = kept
						}
						for i, k := range []int{1, 3, 10} {
							if diff := sameResults(got[i], all[:min(k, len(all))]); diff != "" {
								t.Errorf("%s, %s, %s, %+v: top-%d is not the head of the full ranking: %s", name, m, q.name, variant, k, diff)
							}
						}
					}
				}
			}
		}
	}
	for _, m := range goldenMeasures {
		if isMS := m[:2] == "MS"; isMS != (bounded[m] > 0) {
			t.Errorf("%s: %d pairs bounded over the whole test", m, bounded[m])
		}
	}
}

// TestDuplicatesWithThresholdMatchesFloorlessWalk: Duplicates prunes against
// its threshold; a threshold of -Inf prunes nothing and lists every pair.
// The pairs of the second list that reach the threshold are the first list,
// IDs and score bits, at 1 and 2 shards, with and without a cache — and a
// bounded pair is never looked up, evaluated or cached.
func TestDuplicatesWithThresholdMatchesFloorlessWalk(t *testing.T) {
	ctx := context.Background()
	stored, _ := goldenCorpus(t)
	for _, shards := range []int{1, 2} {
		for _, cache := range []bool{false, true} {
			for _, m := range []string{"MS_ip_te_pll", "MS_np_ta_pw0", "MS_np_tm_plm", "MS_np_ta_pll_greedy", "BW"} {
				opts := []Option{WithShards(shards)}
				if cache {
					opts = append(opts, WithScoreCache(1<<14))
				}
				// A fresh engine per measure: the threshold walks run cold, the
				// floorless one last, over whatever they cached.
				eng := goldenEngine(t, stored, opts...)
				n := eng.Read().Frontier().Workflows
				thresholds := []float64{1.0, 0.95, 0.8, 0.5}
				got := make([][]Pair, len(thresholds))
				for i, threshold := range thresholds {
					var stats Stats
					var err error
					if got[i], stats, err = eng.Duplicates(ctx, threshold, DuplicateOptions{Measure: m}); err != nil {
						t.Fatal(err)
					}
					if covered(stats) != n*(n-1)/2 || stats.Pruned != 0 {
						t.Errorf("shards=%d cache=%v %s at %v: covered %d pairs (%d pruned), want %d", shards, cache, m, threshold, covered(stats), stats.Pruned, n*(n-1)/2)
					}
					if cache && stats.CacheHits+stats.CacheMisses != stats.Scored {
						t.Errorf("shards=%d %s at %v: %d hits + %d misses for %d scored pairs (%d bounded)", shards, m, threshold, stats.CacheHits, stats.CacheMisses, stats.Scored, stats.Bounded)
					}
					if m == "BW" && stats.Bounded != 0 {
						t.Errorf("BW has no bound, yet %d pairs were bounded", stats.Bounded)
					}
					if m == "MS_ip_te_pll" && threshold >= 0.8 && stats.Bounded == 0 {
						t.Errorf("shards=%d cache=%v %s at %v: nothing bounded", shards, cache, m, threshold)
					}
				}
				all, allStats, err := eng.Duplicates(ctx, math.Inf(-1), DuplicateOptions{Measure: m})
				if err != nil {
					t.Fatal(err)
				}
				if allStats.Bounded != 0 || len(all) != n*(n-1)/2 {
					t.Fatalf("%s: the floorless walk listed %d of %d pairs and bounded %d", m, len(all), n*(n-1)/2, allStats.Bounded)
				}
				for i, threshold := range thresholds {
					var want []Pair
					for _, p := range all {
						if p.Similarity >= threshold {
							want = append(want, p)
						}
					}
					if len(got[i]) != len(want) {
						t.Fatalf("shards=%d cache=%v %s at %v: %d pairs, the floorless walk has %d", shards, cache, m, threshold, len(got[i]), len(want))
					}
					for j := range want {
						if got[i][j] != want[j] {
							t.Fatalf("shards=%d cache=%v %s at %v, pair %d: %+v, the floorless walk has %+v", shards, cache, m, threshold, j, got[i][j], want[j])
						}
					}
				}
			}
		}
	}
}

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
