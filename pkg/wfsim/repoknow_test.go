package wfsim

import (
	"context"
	"math"
	"testing"
)

// ipWorkflow builds a valid chain workflow over the given module labels.
func ipWorkflow(id string, labels ...string) *Workflow {
	w := NewWorkflow(id)
	prev := -1
	for _, l := range labels {
		i := w.AddModule(&Module{Label: l, Type: TypeWSDL})
		if prev >= 0 {
			_ = w.AddEdge(prev, i)
		}
		prev = i
	}
	return w
}

// ipCorpus is a repository where the label "shim" appears in exactly half
// the workflows: document frequency 0.5, IDF score 0.5, kept at the default
// projection threshold. Every other label is unique (score 0.75, kept).
func ipCorpus(t *testing.T) *Repository {
	t.Helper()
	repo, err := NewRepository(
		ipWorkflow("w1", "shim", "fetch_protein_sequence"),
		ipWorkflow("w2", "shim", "render_bar_chart"),
		ipWorkflow("w3", "align_genomes", "call_variants"),
		ipWorkflow("w4", "annotate_pathways", "export_report"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// TestProjectorRefreshOnApply is the headline regression test: Engine.Apply
// mutations that change module document frequencies must change "ip" measure
// scores — the repository-knowledge projector is no longer frozen at
// construction.
func TestProjectorRefreshOnApply(t *testing.T) {
	eng, err := New(ipCorpus(t), WithRepositoryKnowledge(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const measure = "MS_ip_ta_pll"

	// At construction df(shim) = 2/4 = 0.5 → score 0.5 ≥ threshold: kept.
	if got := eng.Project(eng.Read().Get("w1")).Size(); got != 2 {
		t.Fatalf("initial projection of w1 keeps %d modules, want 2", got)
	}
	before, err := eng.Read().CompareIDs(ctx, "w1", "w2", measure)
	if err != nil {
		t.Fatal(err)
	}
	if before[0].Err != nil {
		t.Fatal(before[0].Err)
	}

	// Two more workflows using "shim": df rises to 4/6 ≈ 0.67, score drops
	// to ≈ 0.33 < 0.5 — the previously-kept module must now be projected
	// away on the next read, without any explicit refresh call.
	if _, err := eng.Apply(ctx,
		AddWorkflow(ipWorkflow("w5", "shim", "cluster_expression_data")),
		AddWorkflow(ipWorkflow("w6", "shim", "plot_phylogeny")),
	); err != nil {
		t.Fatal(err)
	}
	if got := eng.Project(eng.Read().Get("w1")).Size(); got != 1 {
		t.Errorf("post-Apply projection of w1 keeps %d modules, want 1 (shim projected away)", got)
	}
	after, err := eng.Read().CompareIDs(ctx, "w1", "w2", measure)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Err != nil {
		t.Fatal(after[0].Err)
	}
	// w1 and w2 shared only "shim"; with it projected away their structural
	// similarity must drop.
	if !(after[0].Similarity < before[0].Similarity) {
		t.Errorf("ip score frozen across Apply: before %v, after %v", before[0].Similarity, after[0].Similarity)
	}

	// Removing the added workflows restores the original frequencies — and
	// the original scores (refresh works in the shrinking direction too).
	if _, err := eng.Apply(ctx, RemoveWorkflow("w5"), RemoveWorkflow("w6")); err != nil {
		t.Fatal(err)
	}
	restored, err := eng.Read().CompareIDs(ctx, "w1", "w2", measure)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(restored[0].Similarity-before[0].Similarity) > 1e-12 {
		t.Errorf("score after remove = %v, want %v (original frequencies restored)", restored[0].Similarity, before[0].Similarity)
	}

	// The projector is rebuilt once per generation, not once per read.
	rebuilds := eng.ProjectorRebuilds()
	for i := 0; i < 5; i++ {
		if _, err := eng.Read().CompareIDs(ctx, "w1", "w2", measure); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.ProjectorRebuilds(); got != rebuilds {
		t.Errorf("projector rebuilt %d times across reads of one generation", got-rebuilds)
	}
}

// TestRepositoryKnowledgeOnEmptyRepository: an engine built over an empty
// repository (the wfsimd cold-start path) must not freeze a projector
// computed over zero workflows — once workflows arrive, projection uses
// their real frequencies.
func TestRepositoryKnowledgeOnEmptyRepository(t *testing.T) {
	repo, err := NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(repo, WithRepositoryKnowledge(0))
	if err != nil {
		t.Fatalf("empty repository rejected: %v", err)
	}
	ctx := context.Background()

	// "shim" in every workflow: df 1.0, score 0 — must be projected away
	// even though the projector was first built over nothing.
	if _, err := eng.Apply(ctx,
		AddWorkflow(ipWorkflow("w1", "shim", "fetch_protein_sequence")),
		AddWorkflow(ipWorkflow("w2", "shim", "render_bar_chart")),
		AddWorkflow(ipWorkflow("w3", "shim", "align_genomes")),
	); err != nil {
		t.Fatal(err)
	}
	if got := eng.Project(eng.Read().Get("w1")).Size(); got != 1 {
		t.Errorf("projection over post-ingest corpus keeps %d modules, want 1", got)
	}
}

// TestRepositoryKnowledgeThresholdValidation: impossible thresholds are a
// construction error, not a silent keep-nothing projector.
func TestRepositoryKnowledgeThresholdValidation(t *testing.T) {
	for _, bad := range []float64{1.5, math.NaN()} {
		if _, err := New(ipCorpus(t), WithRepositoryKnowledge(bad)); err == nil {
			t.Errorf("threshold %v accepted", bad)
		}
	}
	// Option order must not matter: knowledge first, measures after.
	if _, err := New(ipCorpus(t),
		WithRepositoryKnowledge(0.5),
		WithMeasure("content", &contentMeasure{}),
		WithIndex(1),
	); err != nil {
		t.Errorf("option ordering rejected: %v", err)
	}
}

// TestProjectionPerSnapshotGeneration: readers pinned to different
// generations each get the projector of their own snapshot — an in-flight
// read over a pre-mutation snapshot cannot regress the projection a
// post-mutation reader uses, and both keep distinct cache epochs.
func TestProjectionPerSnapshotGeneration(t *testing.T) {
	eng, err := New(ipCorpus(t), WithRepositoryKnowledge(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	viewOld := eng.coord.View()
	if _, err := eng.Apply(ctx,
		AddWorkflow(ipWorkflow("w5", "shim", "cluster_expression_data")),
		AddWorkflow(ipWorkflow("w6", "shim", "plot_phylogeny")),
	); err != nil {
		t.Fatal(err)
	}
	viewNew := eng.coord.View()

	projOld, epochOld := eng.projectionFor(viewOld)
	projNew, epochNew := eng.projectionFor(viewNew)
	if epochOld == epochNew {
		t.Fatal("distinct generations share one projector epoch")
	}
	w1 := viewOld.Get("w1")
	// Under gen-0 frequencies "shim" is kept; under gen-1 it is projected
	// away — both projections must be served simultaneously.
	if got := projOld(w1).Size(); got != 2 {
		t.Errorf("old-snapshot projection keeps %d modules, want 2", got)
	}
	if got := projNew(w1).Size(); got != 1 {
		t.Errorf("new-snapshot projection keeps %d modules, want 1", got)
	}
	// Resolving the old generation again must reuse its entry, not rebuild
	// (and certainly not clobber the newer generation's projector).
	if _, e := eng.projectionFor(viewOld); e != epochOld {
		t.Errorf("old generation re-resolved to epoch %d, want %d", e, epochOld)
	}
	if _, e := eng.projectionFor(viewNew); e != epochNew {
		t.Errorf("new generation re-resolved to epoch %d, want %d", e, epochNew)
	}
}

// TestCompareIDsReportsGeneration: a Reader's CompareIDs resolves both
// workflows from the Reader's view, whose Frontier is the generation to
// report: removing a side after the Reader was taken changes neither.
func TestCompareIDsReportsGeneration(t *testing.T) {
	eng, err := New(ipCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rd := eng.Read()
	if _, err := eng.Apply(ctx, RemoveWorkflow("w2")); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.CompareIDs(ctx, "w1", "w2", "BW"); err != nil || rd.Frontier().Generation != 0 {
		t.Errorf("CompareIDs gen = %d err = %v, want 0/nil", rd.Frontier().Generation, err)
	}
	fresh := eng.Read()
	if _, err := fresh.CompareIDs(ctx, "w1", "w2", "BW"); err == nil || fresh.Frontier().Generation != 1 {
		t.Errorf("post-Apply CompareIDs gen = %d err = %v, want 1 and not found", fresh.Frontier().Generation, err)
	}
}
