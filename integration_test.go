package repro

// End-to-end integration tests across module boundaries: corpus generation →
// persistence round trip → import/export formats → indexing → search →
// clustering → evaluation. These are the workflows a downstream adopter
// strings together; each step's output feeds the next.

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/measures"
	"repro/internal/module"
	"repro/internal/rank"
	"repro/internal/repoknow"
	"repro/internal/search"
	"repro/internal/wfio"
	"repro/pkg/wfsim"
)

func integrationCorpus(t testing.TB) *gen.Corpus {
	t.Helper()
	p := gen.Taverna()
	p.Workflows = 120
	p.Clusters = 8
	c, err := gen.Generate(p, 55)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func tunedMS(proj *repoknow.Projector) measures.Measure {
	return measures.NewStructural(measures.Config{
		Topology:  measures.ModuleSets,
		Scheme:    module.PLL(),
		Preselect: module.TypeEquivalence,
		Project:   proj.Project,
		Normalize: true,
	})
}

// TestEndToEndPersistenceAndSearchParity saves a generated corpus, reloads
// it, and verifies that top-k search over the reloaded corpus returns the
// same ranked hits: persistence loses nothing the measures use.
func TestEndToEndPersistenceAndSearchParity(t *testing.T) {
	c := integrationCorpus(t)
	path := filepath.Join(t.TempDir(), "corpus.json")
	if err := c.Repo.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := corpus.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	orig, back := c.Repo.Snapshot(), reloaded.Snapshot()
	if back.Size() != orig.Size() {
		t.Fatalf("reloaded size %d != %d", back.Size(), orig.Size())
	}

	m1 := tunedMS(repoknow.NewProjector(repoknow.TypeScorer{}, 0.5))
	m2 := tunedMS(repoknow.NewProjector(repoknow.TypeScorer{}, 0.5))
	for _, qid := range orig.IDs()[:5] {
		r1, _, _ := search.TopK(context.Background(), orig.Get(qid), orig, m1, search.Options{K: 10})
		r2, _, _ := search.TopK(context.Background(), back.Get(qid), back, m2, search.Options{K: 10})
		if len(r1) != len(r2) {
			t.Fatalf("query %s: result counts differ", qid)
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("query %s rank %d: %+v vs %+v", qid, i, r1[i], r2[i])
			}
		}
	}
}

// TestEndToEndFormatRoundTripPreservesSimilarity exports workflows to both
// external formats, re-imports them, and verifies pairwise similarities are
// unchanged for the attributes each format preserves.
func TestEndToEndFormatRoundTripPreservesSimilarity(t *testing.T) {
	c := integrationCorpus(t)
	wfs := c.Repo.Snapshot().Workflows()[:12]

	// t2flow preserves all Taverna attributes; similarities must be equal.
	m := measures.NewStructural(measures.Config{
		Topology: measures.ModuleSets, Scheme: module.PW0(), Normalize: true,
	})
	for i := 0; i+1 < len(wfs); i += 2 {
		a, b := wfs[i], wfs[i+1]
		var bufA, bufB bytes.Buffer
		if err := wfio.WriteT2Flow(&bufA, a); err != nil {
			t.Fatal(err)
		}
		if err := wfio.WriteT2Flow(&bufB, b); err != nil {
			t.Fatal(err)
		}
		a2, err := wfio.ParseT2Flow(&bufA)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := wfio.ParseT2Flow(&bufB)
		if err != nil {
			t.Fatal(err)
		}
		orig, _ := m.Compare(a, b)
		trip, _ := m.Compare(a2, b2)
		// Labels change to module IDs on import (processor names), so use
		// a scheme-stable bound rather than exact equality: service
		// attributes and structure survive, so the drift must be small.
		if diff := orig - trip; diff > 0.35 || diff < -0.35 {
			t.Errorf("pair (%s,%s): similarity drifted %0.3f -> %0.3f", a.ID, b.ID, orig, trip)
		}
	}
}

// TestEndToEndIndexedSearchAgreesOnTopHit verifies the inverted-index
// accelerated search and the exact scan agree on the best hit for cluster
// queries (the hit is a near-duplicate sharing vocabulary by construction).
func TestEndToEndIndexedSearchAgreesOnTopHit(t *testing.T) {
	snap := integrationCorpus(t).Repo.Snapshot()
	idx := index.Build(snap)
	m := tunedMS(repoknow.NewProjector(repoknow.TypeScorer{}, 0.5))
	agree := 0
	total := 0
	for _, qid := range snap.IDs()[:10] {
		q := snap.Get(qid)
		exact, _, _ := search.TopK(context.Background(), q, snap, m, search.Options{K: 1})
		cands, _ := idx.CaptureCandidates(q, 1)
		fast, _, err := search.TopK(context.Background(), q, search.List(cands), m, search.Options{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(exact) == 0 || len(fast) == 0 {
			continue
		}
		total++
		if exact[0].Similarity <= fast[0].Similarity+1e-9 {
			agree++
		}
	}
	if agree < total {
		t.Errorf("indexed search lost the top hit on %d/%d queries", total-agree, total)
	}
}

// TestEndToEndEvaluationPipeline runs the complete evaluation loop on a
// small corpus: rating study → algorithm ranking → correctness against
// consensus, and checks a tuned structural measure lands in a sane band.
func TestEndToEndEvaluationPipeline(t *testing.T) {
	c := integrationCorpus(t)
	panel := eval.NewPanel(15, 2)
	study := eval.BuildRankingStudy(c, 4, panel, 3)
	m := tunedMS(repoknow.NewProjector(repoknow.TypeScorer{}, 0.5))

	var corrs []float64
	snap := c.Repo.Snapshot()
	for _, q := range study.Queries {
		scores := map[string]float64{}
		for _, cand := range study.Candidates[q] {
			s, err := m.Compare(snap.Get(q), snap.Get(cand))
			if err != nil {
				t.Fatal(err)
			}
			scores[cand] = s
		}
		corrs = append(corrs, rank.Correctness(study.Consensus[q], rank.FromScores(scores, 1e-9)))
	}
	var sum float64
	for _, v := range corrs {
		sum += v
	}
	mean := sum / float64(len(corrs))
	if mean < 0.4 {
		t.Errorf("tuned MS mean correctness %.3f too low for a functioning pipeline", mean)
	}
}

// TestEndToEndClusteringMatchesSearch clusters the corpus and verifies that
// a query's top search hit lands in the query's own cluster for most
// queries — the two views of similarity must cohere.
func TestEndToEndClusteringMatchesSearch(t *testing.T) {
	c := integrationCorpus(t)
	eng, err := wfsim.New(c.Repo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	minSim := 0.45
	res, err := eng.Cluster(ctx, wfsim.ClusterOptions{Measure: "MS_ip_te_pll", MinSimilarity: &minSim})
	if err != nil {
		t.Fatal(err)
	}
	clusterOf := map[string]int{}
	for k, members := range res.Clusters {
		for _, id := range members {
			clusterOf[id] = k
		}
	}
	coherent, total := 0, 0
	for _, qid := range c.Repo.Snapshot().IDs()[:12] {
		hits, _, err := eng.SearchID(ctx, qid, wfsim.SearchOptions{Measure: "MS_ip_te_pll", K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 {
			continue
		}
		total++
		if clusterOf[qid] == clusterOf[hits[0].ID] {
			coherent++
		}
	}
	if coherent*4 < total*3 {
		t.Errorf("only %d/%d queries share a cluster with their top hit", coherent, total)
	}
}
