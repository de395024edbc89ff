package index

import (
	"context"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/measures"
	"repro/internal/module"
	"repro/internal/search"
	"repro/internal/workflow"
)

func testCorpus(t testing.TB) *corpus.Snapshot {
	t.Helper()
	p := gen.Taverna()
	p.Workflows = 200
	p.Clusters = 10
	c, err := gen.Generate(p, 31)
	if err != nil {
		t.Fatal(err)
	}
	return c.Repo.Snapshot()
}

func pllMS() measures.Measure {
	return measures.NewStructural(measures.Config{
		Topology: measures.ModuleSets, Scheme: module.PLL(), Normalize: true,
	})
}

func plmMS() measures.Measure {
	return measures.NewStructural(measures.Config{
		Topology: measures.ModuleSets, Scheme: module.PLM(), Normalize: true,
	})
}

// refined is one filter-and-refine search: what the shard read path makes
// of the index (capture candidates under the read lock, score them with
// the one top-k kernel outside it).
type refined struct {
	Results    []search.Result
	Candidates int // workflows handed to the refine stage
	Pruned     int // live workflows the filter dropped
}

func refine(ctx context.Context, idx *Index, query *workflow.Workflow, m measures.Measure, k, minShared int) (refined, error) {
	cands, live := idx.CaptureCandidates(query, minShared)
	results, _, err := search.TopK(ctx, query, search.List(cands), m, search.Options{K: k})
	return refined{Results: results, Candidates: len(cands), Pruned: live - len(cands)}, err
}

func TestBuildIndexesAllWorkflows(t *testing.T) {
	c := testCorpus(t)
	idx := Build(c)
	if idx.Stats().Vocabulary == 0 {
		t.Fatal("empty vocabulary")
	}
	for pos := range c.Workflows() {
		if len(idx.entries[pos].labels) == 0 {
			t.Fatalf("workflow at %d has no indexed labels", pos)
		}
	}
	if idx.Size() != c.Size() {
		t.Errorf("index size %d vs repo size %d", idx.Size(), c.Size())
	}
}

func TestCandidatesShareLabels(t *testing.T) {
	c := testCorpus(t)
	idx := Build(c)
	query := c.Workflows()[0]
	cands := idx.Candidates(query, 1)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	// Every candidate shares at least one canonical label by construction;
	// spot check the top candidate overlaps heavily.
	if len(cands) == c.Size() {
		t.Log("warning: no pruning on this corpus (labels too shared)")
	}
	// With a high minShared the candidate set shrinks monotonically.
	strict := idx.Candidates(query, 4)
	if len(strict) > len(cands) {
		t.Errorf("minShared=4 yields more candidates (%d) than minShared=1 (%d)", len(strict), len(cands))
	}
}

func TestTopKExcludesQueryAndSorts(t *testing.T) {
	c := testCorpus(t)
	idx := Build(c)
	query := c.Workflows()[0]
	res, err := refine(context.Background(), idx, query, pllMS(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 10 {
		t.Fatalf("results = %d", len(res.Results))
	}
	for i, r := range res.Results {
		if r.ID == query.ID {
			t.Error("query in results")
		}
		if i > 0 && r.Similarity > res.Results[i-1].Similarity {
			t.Error("not sorted")
		}
	}
	if res.Candidates+res.Pruned != c.Size() {
		t.Errorf("accounting: %d candidates + %d pruned vs %d total",
			res.Candidates, res.Pruned, c.Size())
	}
}

func TestLosslessForStrictLabelMatching(t *testing.T) {
	// For plm (strict label matching on the canonical... actually raw
	// labels), workflows sharing no canonical label score 0 under MS: the
	// filter at minShared=1 must reproduce the exact top-k whenever the
	// exact top-k has positive scores.
	c := testCorpus(t)
	idx := Build(c)
	m := plmMS()
	for _, query := range c.Workflows()[:10] {
		exact, _, _ := search.TopK(context.Background(), query, c, m, search.Options{K: 5})
		fast, err := refine(context.Background(), idx, query, m, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, er := range exact {
			if er.Similarity <= 0 {
				break // zero-score tail may differ arbitrarily
			}
			if i >= len(fast.Results) {
				t.Fatalf("query %s: accelerated list too short", query.ID)
			}
			if fast.Results[i].Similarity < er.Similarity-1e-9 {
				t.Errorf("query %s rank %d: fast %.4f < exact %.4f",
					query.ID, i, fast.Results[i].Similarity, er.Similarity)
			}
		}
	}
}

func TestRecallHighForEditDistance(t *testing.T) {
	c := testCorpus(t)
	idx := Build(c)
	m := pllMS()
	var total float64
	queries := c.Workflows()[:8]
	for _, q := range queries {
		// Recall of the accelerated top-10 against the exact scan.
		exact, _, err := search.TopK(context.Background(), q, c, m, search.Options{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := refine(context.Background(), idx, q, m, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, r := range fast.Results {
			got[r.ID] = true
		}
		hit := 0
		for _, r := range exact {
			if got[r.ID] {
				hit++
			}
		}
		total += float64(hit) / float64(len(exact))
	}
	mean := total / float64(len(queries))
	if mean < 0.9 {
		t.Errorf("mean top-10 recall = %.2f, want >= 0.9", mean)
	}
}

func TestPruningActuallyHappens(t *testing.T) {
	// Two disjoint vocabularies: query from one must prune the other.
	w1 := workflow.New("a")
	w1.AddModule(&workflow.Module{Label: "alpha_one", Type: workflow.TypeWSDL})
	w2 := workflow.New("b")
	w2.AddModule(&workflow.Module{Label: "alpha_one_v2", Type: workflow.TypeWSDL})
	w3 := workflow.New("c")
	w3.AddModule(&workflow.Module{Label: "totally_different", Type: workflow.TypeWSDL})
	repo, err := corpus.NewRepository(w1, w2, w3)
	if err != nil {
		t.Fatal(err)
	}
	idx := Build(repo.Snapshot())
	res, err := refine(context.Background(), idx, w1, pllMS(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned < 1 {
		t.Errorf("expected pruning, got %d", res.Pruned)
	}
	// Canonicalization strips the _v2-style digits... "alpha_one_v2" ->
	// "alphaonev": shares no key with "alphaone"; so only exact-canonical
	// matches are candidates.
	for _, r := range res.Results {
		if r.ID == "c" {
			t.Error("disjoint workflow not pruned")
		}
	}
}

func BenchmarkIndexedVsExactSearch(b *testing.B) {
	c := testCorpus(b)
	idx := Build(c)
	query := c.Workflows()[0]
	m := pllMS()
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refine(context.Background(), idx, query, m, 10, 1)
		}
	})
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			search.TopK(context.Background(), query, c, m, search.Options{K: 10, Parallelism: 1})
		}
	})
}

func TestTopKCancelledContext(t *testing.T) {
	c := testCorpus(t)
	idx := Build(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := refine(ctx, idx, c.Workflows()[0], pllMS(), 10, 1); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// sameTopK asserts two indexes answer a query identically.
func sameTopK(t *testing.T, a, b *Index, query *workflow.Workflow) {
	t.Helper()
	ra, err := refine(context.Background(), a, query, plmMS(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := refine(context.Background(), b, query, plmMS(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Results) != len(rb.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(ra.Results), len(rb.Results))
	}
	for i := range ra.Results {
		if ra.Results[i] != rb.Results[i] {
			t.Fatalf("rank %d differs: %+v vs %+v", i, ra.Results[i], rb.Results[i])
		}
	}
	if ra.Candidates != rb.Candidates || ra.Pruned != rb.Pruned {
		t.Fatalf("stats differ: %d/%d vs %d/%d", ra.Candidates, ra.Pruned, rb.Candidates, rb.Pruned)
	}
}

// TestIncrementalMatchesFullBuild grows an index one Insert at a time and
// checks it answers exactly like a from-scratch Build at every tenth step,
// then deletes half the corpus and checks again against a Build over the
// survivors.
func TestIncrementalMatchesFullBuild(t *testing.T) {
	c := testCorpus(t)
	wfs := c.Workflows()[:60]
	query := wfs[0]

	inc := New()
	for i, wf := range wfs {
		if err := inc.Insert(wf); err != nil {
			t.Fatal(err)
		}
		if (i+1)%20 == 0 {
			ref, _ := corpus.NewRepository(wfs[:i+1]...)
			sameTopK(t, inc, Build(ref.Snapshot()), query)
		}
	}
	if err := inc.Insert(wfs[3]); err == nil {
		t.Error("duplicate insert accepted")
	}

	// Delete every other workflow (keeping the query) and compare against a
	// fresh build over the survivors.
	var kept []*workflow.Workflow
	for i, wf := range wfs {
		if i != 0 && i%2 == 1 {
			if !inc.Delete(wf.ID) {
				t.Fatalf("delete %q failed", wf.ID)
			}
		} else {
			kept = append(kept, wf)
		}
	}
	if inc.Delete("no-such-id") {
		t.Error("deleting unknown ID reported true")
	}
	ref, _ := corpus.NewRepository(kept...)
	sameTopK(t, inc, Build(ref.Snapshot()), query)
}

// extraTwin builds a one-module workflow for drift probes.
func extraTwin(id string) *workflow.Workflow {
	w := workflow.New(id)
	w.AddModule(&workflow.Module{Label: "drift_probe_label", Type: workflow.TypeWSDL})
	return w
}

// TestApplyBatchAndReplace routes a corpus-style batch through Apply and
// checks equivalence with a full rebuild of the mutated repository.
func TestApplyBatchAndReplace(t *testing.T) {
	c := testCorpus(t)
	wfs := c.Workflows()[:40]
	repo, _ := corpus.NewRepository(wfs...)
	idx := Build(repo.Snapshot())

	repl := workflow.New(wfs[5].ID)
	repl.AddModule(&workflow.Module{Label: "completely_fresh_label", Type: workflow.TypeWSDL})
	extra := workflow.New("batch-new")
	extra.AddModule(&workflow.Module{Label: "another_fresh_label", Type: workflow.TypeWSDL})
	ops := []corpus.Op{
		{Kind: corpus.OpAdd, Workflow: extra},
		{Kind: corpus.OpRemove, ID: wfs[7].ID},
		{Kind: corpus.OpReplace, Workflow: repl},
	}
	if _, err := repo.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if err := idx.Apply(ops, repo.Generation()); err != nil {
		t.Fatal(err)
	}
	if idx.Generation() != repo.Generation() {
		t.Errorf("Apply did not stamp the generation: %d vs %d", idx.Generation(), repo.Generation())
	}
	sameTopK(t, idx, Build(repo.Snapshot()), wfs[0])
	if cands, _ := idx.CaptureCandidates(repl, 1); !slices.Contains(cands, repl) {
		t.Error("replaced workflow not findable via candidates")
	}
	genBefore := idx.Generation()
	liveBefore := idx.Stats().Live
	if err := idx.Apply([]corpus.Op{
		{Kind: corpus.OpAdd, Workflow: extraTwin("drift-probe")},
		{Kind: corpus.OpRemove, ID: "never-there"},
	}, genBefore+1); err == nil {
		t.Error("drifted Apply accepted")
	}
	// A rejected batch must leave the index untouched and unstamped.
	if idx.Generation() != genBefore {
		t.Errorf("failed Apply stamped generation %d", idx.Generation())
	}
	if idx.Stats().Live != liveBefore {
		t.Errorf("failed Apply half-applied: live %d -> %d", liveBefore, idx.Stats().Live)
	}
}

// TestCompactionSweepsTombstones deletes most of the index and verifies the
// tombstones are swept and searches stay correct.
func TestCompactionSweepsTombstones(t *testing.T) {
	c := testCorpus(t)
	wfs := c.Workflows()
	idx := Build(c)
	for _, wf := range wfs[100:] {
		idx.Delete(wf.ID)
	}
	st := idx.Stats()
	if st.Compactions == 0 {
		t.Errorf("no compaction after %d deletes (dead=%d)", len(wfs)-100, st.Dead)
	}
	if st.Live != 100 {
		t.Errorf("live = %d, want 100", st.Live)
	}
	if st.Dead >= compactionMinDead && st.Dead*4 >= st.Live+st.Dead {
		t.Errorf("tombstones not swept: %+v", st)
	}
	ref, _ := corpus.NewRepository(wfs[:100]...)
	sameTopK(t, idx, Build(ref.Snapshot()), wfs[0])
}

// TestConcurrentSearchAndMutate hammers TopK while a writer churns the
// index; run with -race this is the index's torn-read detector.
func TestConcurrentSearchAndMutate(t *testing.T) {
	c := testCorpus(t)
	wfs := c.Workflows()
	idx := Build(c)
	query := wfs[0]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 5; round++ {
			for _, wf := range wfs[150:] {
				idx.Delete(wf.ID)
			}
			for _, wf := range wfs[150:] {
				if err := idx.Insert(wf); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
			// One final search against the settled index.
			res, err := refine(context.Background(), idx, query, plmMS(), 10, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Results) == 0 {
				t.Fatal("no results after churn")
			}
			return
		default:
			if _, err := refine(context.Background(), idx, query, plmMS(), 5, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
}
