package wfsim

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// mutWorkflow builds a tiny valid workflow whose similarity under
// contentMeasure is driven by its first module label.
func mutWorkflow(id, label string) *Workflow {
	w := NewWorkflow(id)
	a := w.AddModule(&Module{Label: label, Type: TypeWSDL})
	b := w.AddModule(&Module{Label: label + "_step_two", Type: TypeWSDL})
	_ = w.AddEdge(a, b)
	return w
}

// contentMeasure scores pairs by content (first-label equality) and counts
// every real evaluation, so tests can prove the cache short-circuited it.
type contentMeasure struct {
	calls atomic.Int64
}

func (m *contentMeasure) Name() string { return "content" }

func (m *contentMeasure) Compare(a, b *Workflow) (float64, error) {
	m.calls.Add(1)
	if len(a.Modules) > 0 && len(b.Modules) > 0 && a.Modules[0].Label == b.Modules[0].Label {
		return 1, nil
	}
	return 0.3, nil
}

func mutEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	repo, err := NewRepository(
		mutWorkflow("w1", "fetch_sequence"),
		mutWorkflow("w2", "fetch_sequence"),
		mutWorkflow("w3", "run_blast"),
		mutWorkflow("w4", "render_plot"),
	)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(repo, append(testShardOpts(t), opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestApplyAddVisibleWithoutRebuild is the incremental-maintenance
// acceptance test: a post-Apply search sees the new workflow through the
// index with zero full rebuilds.
func TestApplyAddVisibleWithoutRebuild(t *testing.T) {
	eng := mutEngine(t, WithIndex(1), WithMeasure("content", &contentMeasure{}))
	ctx := context.Background()
	gensBefore := eng.Read().Frontier().Generations

	gen, err := eng.Apply(ctx,
		AddWorkflow(mutWorkflow("w5", "spot_image")),
		RemoveWorkflow("w4"),
		ReplaceWorkflow(mutWorkflow("w3", "spot_image")),
	)
	if err != nil {
		t.Fatal(err)
	}
	// One batch is one generation on every shard it touches, none elsewhere.
	touched := uint64(0)
	for i, after := range eng.Read().Frontier().Generations {
		if d := after - gensBefore[i]; d > 1 {
			t.Errorf("shard %d generation: %d -> %d, want at most +1", i, gensBefore[i], after)
		} else {
			touched += d
		}
	}
	if touched == 0 || gen != eng.Read().Frontier().Generation {
		t.Errorf("generations %v -> %v (Apply returned %d): batch did not commit as one generation per touched shard", gensBefore, eng.Read().Frontier().Generations, gen)
	}

	// The added workflow and the replaced content are indexed: an indexed
	// search from w5 finds its new twin w3 (both "spot_image") at 1.0.
	results, stats, err := eng.SearchID(ctx, "w5", SearchOptions{Measure: "content", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generation != gen {
		t.Errorf("search generation = %d, want %d", stats.Generation, gen)
	}
	if len(results) == 0 || results[0].ID != "w3" || results[0].Similarity != 1 {
		t.Errorf("post-Apply indexed search = %v, want w3 at 1.0", results)
	}
	for _, r := range results {
		if r.ID == "w4" {
			t.Error("removed workflow served from index")
		}
	}

	ist, ok := eng.IndexStats()
	if !ok {
		t.Fatal("engine has no index stats")
	}
	if ist.Rebuilds != 0 {
		t.Errorf("index was fully rebuilt %d times; maintenance must be incremental", ist.Rebuilds)
	}
	if ist.Generation != gen {
		t.Errorf("index generation = %d, want %d", ist.Generation, gen)
	}
	if ist.Live != 4 {
		t.Errorf("index live = %d, want 4", ist.Live)
	}
}

// TestApplyTransactional: a batch with one bad op must leave generation,
// repository and index untouched.
func TestApplyTransactional(t *testing.T) {
	eng := mutEngine(t, WithIndex(1))
	ctx := context.Background()
	genBefore := eng.Read().Frontier().Generation
	istBefore, _ := eng.IndexStats()

	if _, err := eng.Apply(ctx,
		AddWorkflow(mutWorkflow("w9", "ok")),
		RemoveWorkflow("no-such-id"),
	); err == nil {
		t.Fatal("bad batch accepted")
	}
	if eng.Read().Frontier().Generation != genBefore {
		t.Error("failed batch bumped the generation")
	}
	if eng.Read().Get("w9") != nil {
		t.Error("failed batch partially applied")
	}
	if ist, _ := eng.IndexStats(); ist.Live != istBefore.Live {
		t.Errorf("failed batch touched the index: live %d -> %d", istBefore.Live, ist.Live)
	}

	if _, err := eng.Apply(ctx, Mutation{}); err == nil {
		t.Error("zero mutation accepted")
	}
	if _, err := eng.Apply(ctx, AddWorkflow(nil)); err == nil {
		t.Error("nil workflow accepted")
	}
	// Structural validation is part of the transaction.
	bad := NewWorkflow("bad")
	bad.AddModule(&Module{Label: "x", Type: TypeWSDL})
	bad.Edges = append(bad.Edges, Edge{From: 0, To: 9})
	if _, err := eng.Apply(ctx, AddWorkflow(bad)); err == nil {
		t.Error("structurally invalid workflow accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.Apply(cancelled, RemoveWorkflow("w1")); err == nil {
		t.Error("cancelled Apply accepted")
	}
	// An empty batch is a no-op reporting the current generation.
	if gen, err := eng.Apply(ctx); err != nil || gen != genBefore {
		t.Errorf("empty batch: gen %d err %v", gen, err)
	}
}

// gateMeasure blocks its first Compare until released, letting a test hold
// a search in flight while a mutation commits.
type gateMeasure struct {
	inner   contentMeasure
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateMeasure) Name() string { return "gate" }

func (g *gateMeasure) Compare(a, b *Workflow) (float64, error) {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	return g.inner.Compare(a, b)
}

// TestSearchPinsPreMutationSnapshot is the snapshot-isolation acceptance
// test: a Search issued before Apply completes returns results consistent
// with the pre-mutation repository.
func TestSearchPinsPreMutationSnapshot(t *testing.T) {
	gm := &gateMeasure{started: make(chan struct{}), release: make(chan struct{})}
	eng := mutEngine(t, WithMeasure("gate", gm), WithConcurrency(2))
	ctx := context.Background()
	genBefore := eng.Read().Frontier().Generation

	type outcome struct {
		results []Result
		stats   Stats
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		o.results, o.stats, o.err = eng.SearchID(ctx, "w1", SearchOptions{Measure: "gate", K: 10})
		done <- o
	}()

	<-gm.started // the search is mid-scan, pinned to the old snapshot
	gen, err := eng.Apply(ctx,
		AddWorkflow(mutWorkflow("w5", "fetch_sequence")), // would rank top for w1
		RemoveWorkflow("w2"),                             // w1's current best hit
	)
	if err != nil {
		t.Fatal(err)
	}
	if gen <= genBefore {
		t.Fatalf("apply generation = %d, want past %d", gen, genBefore)
	}
	close(gm.release)

	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.stats.Generation != genBefore {
		t.Errorf("in-flight search observed generation %d, want pre-mutation %d", o.stats.Generation, genBefore)
	}
	ids := map[string]float64{}
	for _, r := range o.results {
		ids[r.ID] = r.Similarity
	}
	if _, ok := ids["w5"]; ok {
		t.Error("in-flight search saw a workflow added mid-scan")
	}
	if _, ok := ids["w2"]; !ok {
		t.Error("in-flight search lost a workflow removed mid-scan")
	}
	if len(o.results) != 3 {
		t.Errorf("in-flight search returned %d results, want 3 (pre-mutation corpus)", len(o.results))
	}

	// A fresh search sees the post-mutation repository.
	results, stats, err := eng.SearchID(ctx, "w1", SearchOptions{Measure: "gate", K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generation != gen {
		t.Errorf("fresh search generation = %d, want %d", stats.Generation, gen)
	}
	ids = map[string]float64{}
	for _, r := range results {
		ids[r.ID] = r.Similarity
	}
	if _, ok := ids["w5"]; !ok {
		t.Error("fresh search misses the added workflow")
	}
	if _, ok := ids["w2"]; ok {
		t.Error("fresh search still serves the removed workflow")
	}
}

// readerAnswers is everything a Reader reports, less the live counters and
// timings that are not part of its view.
type readerAnswers struct {
	Get        map[string]*Workflow
	Workflows  []*Workflow
	Frontier   Frontier
	ShardGens  []uint64
	ShardSizes []int
	SearchID   []Result
	Search     []Result
	Stamps     [2][]uint64 // SearchID's, then Search's Stats.Generation and Generations
	Compare    []Score
	Duplicates []Pair
	Cluster    *ClusterResult
}

func answers(t *testing.T, rd Reader) readerAnswers {
	t.Helper()
	ctx := context.Background()
	opts := SearchOptions{Measure: "content", K: 10}
	var a readerAnswers
	a.Get = map[string]*Workflow{}
	for _, id := range []string{"w1", "w3", "w4", "w5"} {
		a.Get[id] = rd.Get(id)
	}
	a.Workflows = rd.Workflows()
	a.Frontier = rd.Frontier()
	for _, si := range rd.ShardStats() {
		a.ShardGens = append(a.ShardGens, si.Generation)
		a.ShardSizes = append(a.ShardSizes, si.Workflows)
	}
	res, st, err := rd.SearchID(ctx, "w1", opts)
	if err != nil {
		t.Fatal(err)
	}
	a.SearchID, a.Stamps[0] = res, append([]uint64{st.Generation}, st.Generations...)
	if res, st, err = rd.Search(ctx, mutWorkflow("q", "fetch_sequence"), opts); err != nil {
		t.Fatal(err)
	}
	a.Search, a.Stamps[1] = res, append([]uint64{st.Generation}, st.Generations...)
	if a.Compare, err = rd.CompareIDs(ctx, "w1", "w3", "content"); err != nil {
		t.Fatal(err)
	}
	if a.Duplicates, _, err = rd.Duplicates(ctx, 0.9, DuplicateOptions{Measure: "content"}); err != nil {
		t.Fatal(err)
	}
	if a.Cluster, err = rd.Cluster(ctx, ClusterOptions{Measure: "content"}); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestReaderIsOneView: every method of a Reader taken before an Apply — an
// add, a replace and a remove — answers from the pre-Apply corpus, down to
// the workflow objects and the generation stamps; a fresh Read sees the
// post-Apply corpus.
func TestReaderIsOneView(t *testing.T) {
	eng := mutEngine(t, WithMeasure("content", &contentMeasure{}))
	rd := eng.Read()
	want := answers(t, rd)
	if want.Get["w5"] != nil || want.Get["w4"] == nil || len(want.Workflows) != 4 || want.Frontier.Workflows != 4 {
		t.Fatalf("pre-Apply Reader: %+v", want)
	}
	if _, err := eng.Apply(context.Background(),
		AddWorkflow(mutWorkflow("w5", "fetch_sequence")),
		ReplaceWorkflow(mutWorkflow("w3", "fetch_sequence")),
		RemoveWorkflow("w4"),
	); err != nil {
		t.Fatal(err)
	}
	if got := answers(t, rd); !reflect.DeepEqual(got, want) {
		t.Errorf("Reader moved with Apply:\n got %+v\nwant %+v", got, want)
	}

	fresh := answers(t, eng.Read())
	if fresh.Get["w5"] == nil || fresh.Get["w4"] != nil || fresh.Get["w3"] == want.Get["w3"] {
		t.Errorf("fresh Reader lookups %v, want w5 added, w4 removed, w3 replaced", fresh.Get)
	}
	if fresh.Frontier.Workflows != 4 || fresh.Frontier.Generation <= want.Frontier.Generation {
		t.Errorf("fresh Frontier %+v, want 4 workflows past generation %d", fresh.Frontier, want.Frontier.Generation)
	}
	if fresh.Compare[0].Similarity != 1 || want.Compare[0].Similarity == 1 {
		t.Errorf("CompareIDs(w1, w3): fresh %v, pinned %v; want the replaced w3 to match w1 only when fresh", fresh.Compare, want.Compare)
	}
	if len(fresh.Duplicates) != 6 || len(want.Duplicates) != 1 {
		t.Errorf("duplicates: fresh %v, pinned %v; want w1, w2, w3, w5 pairwise fresh, w1-w2 pinned", fresh.Duplicates, want.Duplicates)
	}
}

// TestWarmDuplicatesZeroEvaluations is the score-cache acceptance test, at
// 1, 2 and 4 shards: a repeated Duplicates run with a warm cache performs
// zero pairwise measure evaluations (hits plus bounded pairs equal the pair
// count — a pair a measure's bound puts below the threshold is never looked
// up, evaluated or cached, cold or warm) and matches the cold run exactly, and so does a Cluster after it — both walk
// the same pairs, so a cross-shard pair meets the same shard's cache
// whichever operation asks.
func TestWarmDuplicatesZeroEvaluations(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cm := &contentMeasure{}
			eng, err := New(internTestCorpus(t).Repo, WithShards(shards), WithScoreCache(4096), WithMeasure("content", cm))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			n := eng.Read().Frontier().Workflows
			pairCount := n * (n - 1) / 2

			cold, coldStats, err := eng.Duplicates(ctx, 0.2, DuplicateOptions{Measure: "content"})
			if err != nil {
				t.Fatal(err)
			}
			if coldStats.CacheMisses+coldStats.Bounded != pairCount || coldStats.CacheHits != 0 {
				t.Errorf("cold run: hits %d misses %d bounded %d, want 0 hits and %d pairs", coldStats.CacheHits, coldStats.CacheMisses, coldStats.Bounded, pairCount)
			}
			evalsAfterCold := cm.calls.Load()

			warm, warmStats, err := eng.Duplicates(ctx, 0.2, DuplicateOptions{Measure: "content"})
			if err != nil {
				t.Fatal(err)
			}
			if got := cm.calls.Load(); got != evalsAfterCold {
				t.Errorf("warm run evaluated %d pairs, want 0", got-evalsAfterCold)
			}
			if warmStats.CacheHits+warmStats.Bounded != pairCount || warmStats.CacheMisses != 0 {
				t.Errorf("warm run: hits %d bounded %d misses %d, want %d pairs and 0 misses", warmStats.CacheHits, warmStats.Bounded, warmStats.CacheMisses, pairCount)
			}
			if coldStats.Bounded != 0 || warmStats.Bounded != 0 {
				t.Errorf("a measure without a bound had %d + %d pairs bounded", coldStats.Bounded, warmStats.Bounded)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Errorf("warm results diverge from cold:\ncold %v\nwarm %v", cold, warm)
			}
			if cs := eng.CacheStats(); cs.Hits != uint64(pairCount) || cs.Entries != pairCount {
				t.Errorf("engine cache stats = %+v, want %d hits over %d entries", cs, pairCount, pairCount)
			}
			// Cluster scores the same pair matrix through the same caches.
			if _, err := eng.Cluster(ctx, ClusterOptions{Measure: "content"}); err != nil {
				t.Fatal(err)
			}
			if got := cm.calls.Load(); got != evalsAfterCold {
				t.Errorf("clustering over the warm cache evaluated %d pairs, want 0", got-evalsAfterCold)
			}
			if cs := eng.CacheStats(); cs.Entries != pairCount {
				t.Errorf("clustering stored pairs a second time: %d entries, want %d", cs.Entries, pairCount)
			}
		})
	}
}

// TestCacheInvalidationOnApply: after Apply replaces one workflow and
// removes another, the next pair scan misses exactly the pairs with a
// written side and hits every other pair, no score of the replaced object is
// served (duplicates checks every pair against the reference), and the
// removed ID is in no pair.
func TestCacheInvalidationOnApply(t *testing.T) {
	forCacheShards(t, func(t *testing.T, shards int) {
		tw := newCacheProbe(t, shards)
		ids := tw.ids()
		tw.duplicates() // warm

		replaced, removed := ids[3], ids[10]
		tw.apply(func(e *Engine) []Mutation {
			return []Mutation{
				ReplaceWorkflow(variant(e.Read().Get(ids[5]), replaced, "totally_new_label")),
				RemoveWorkflow(removed),
			}
		})
		n := tw.eng.Read().Frontier().Workflows
		pairs, stats, evals := tw.duplicates()
		tw.wantCounts("scan after replace+remove", stats, evals, n*(n-1)/2-(n-1), n-1)
		if len(pairs) != n*(n-1)/2 {
			t.Errorf("scan returned %d pairs, want %d", len(pairs), n*(n-1)/2)
		}
		for _, p := range pairs {
			if p.A == removed || p.B == removed {
				t.Errorf("removed workflow in pair %v", p)
			}
		}
	})
}

// TestConcurrentSearchDuringApply exercises reads racing mutation batches;
// under -race (CI) it is the engine's torn-state detector.
func TestConcurrentSearchDuringApply(t *testing.T) {
	cm := &contentMeasure{}
	eng := mutEngine(t, WithIndex(1), WithScoreCache(256), WithMeasure("content", cm))
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := eng.SearchID(ctx, "w1", SearchOptions{Measure: "content", K: 5}); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := eng.Duplicates(ctx, 0.5, DuplicateOptions{Measure: "content"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for round := 0; round < 25; round++ {
		id := "churn"
		if _, err := eng.Apply(ctx, AddWorkflow(mutWorkflow(id, "spin_label"))); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Apply(ctx,
			ReplaceWorkflow(mutWorkflow(id, "spun_label")),
			RemoveWorkflow(id),
		); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	ist, _ := eng.IndexStats()
	if ist.Rebuilds != 0 {
		t.Errorf("churn triggered %d full rebuilds", ist.Rebuilds)
	}
	if ist.Live != 4 {
		t.Errorf("index live = %d after churn, want 4", ist.Live)
	}
}
