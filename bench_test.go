package repro

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Figures 4–12 and the Section 5.1.4 runtime statistics), plus
// ablation benches for the design choices called out in DESIGN.md (GED beam
// width, path enumeration cap, module mapping strategy, pair preselection).
//
// The figure benches run the full experiment pipeline at Quick scale and
// report the headline metric of the figure via b.ReportMetric, so
// `go test -bench=.` both regenerates the numbers and times the pipeline.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/ged"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/measures"
	"repro/internal/module"
	"repro/internal/rank"
	"repro/internal/workflow"
	"repro/pkg/wfsim"
)

var (
	benchOnce  sync.Once
	benchSetup *experiments.Setup
	benchErr   error
)

func setupBench(b *testing.B) *experiments.Setup {
	b.Helper()
	benchOnce.Do(func() {
		benchSetup, benchErr = experiments.NewSetup(experiments.Quick(), 1)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSetup
}

// BenchmarkFig4InterAnnotator regenerates Figure 4 (inter-annotator
// agreement with the BioConsert consensus) and reports the panel's mean
// ranking correctness.
func BenchmarkFig4InterAnnotator(b *testing.B) {
	s := setupBench(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig4(s)
		var sum float64
		for _, r := range f.Raters {
			sum += r.Correctness.Mean
		}
		mean = sum / float64(len(f.Raters))
	}
	b.ReportMetric(mean, "panel-mean-correctness")
}

// BenchmarkFig5Baseline regenerates Figure 5 (baseline ranking correctness
// of BW, BT, PS, MS, GE under pw0) and reports BW's lead over GE.
func BenchmarkFig5Baseline(b *testing.B) {
	s := setupBench(b)
	var bw, ge float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig5(s)
		bw = f.Rows[0].Correctness.Mean
		ge = f.Rows[4].Correctness.Mean
	}
	b.ReportMetric(bw, "BW-correctness")
	b.ReportMetric(ge, "GE-correctness")
}

// BenchmarkFig6ModuleSchemes regenerates Figure 6 (module comparison
// schemes) and reports pll's gain over pw0 for simMS.
func BenchmarkFig6ModuleSchemes(b *testing.B) {
	s := setupBench(b)
	var pw0, pll float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig6(s)
		pw0 = f.Rows[0].Correctness.Mean
		pll = f.Rows[2].Correctness.Mean
	}
	b.ReportMetric(pll-pw0, "pll-minus-pw0")
}

// BenchmarkFig7Ablations regenerates Figure 7 (greedy mapping;
// unnormalized GE) and reports the normalization penalty for GE.
func BenchmarkFig7Ablations(b *testing.B) {
	s := setupBench(b)
	var norm, nonorm float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig7(s)
		norm = f.Rows[2].Correctness.Mean
		nonorm = f.Rows[3].Correctness.Mean
	}
	b.ReportMetric(norm-nonorm, "normalization-gain")
}

// BenchmarkFig8RepositoryKnowledge regenerates Figure 8 (te preselection,
// ip projection) and reports ip's effect on simMS.
func BenchmarkFig8RepositoryKnowledge(b *testing.B) {
	s := setupBench(b)
	var np, ip float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig8(s)
		np = f.Rows[0].Correctness.Mean
		ip = f.Rows[3].Correctness.Mean
	}
	b.ReportMetric(ip-np, "ip-gain")
}

// BenchmarkFig9BestAndEnsembles regenerates Figure 9 (configuration sweep
// and ensembles) and reports the best ensemble's lead over the best single
// algorithm.
func BenchmarkFig9BestAndEnsembles(b *testing.B) {
	s := setupBench(b)
	var lead float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig9(s)
		bestSingle := 0.0
		for _, r := range f.Best.Rows {
			if r.Correctness.Mean > bestSingle {
				bestSingle = r.Correctness.Mean
			}
		}
		lead = f.Ensembles.Rows[0].Correctness.Mean - bestSingle
	}
	b.ReportMetric(lead, "ensemble-lead")
}

// BenchmarkFig10Retrieval regenerates Figure 10 (retrieval precision of MS
// module schemes) and reports MS_ip_te_pll's P@10 at relevance related.
func BenchmarkFig10Retrieval(b *testing.B) {
	s := setupBench(b)
	var p10 float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig10(context.Background(), s)
		p10 = f.Curves["MS_ip_te_pll"][eval.Related][9]
	}
	b.ReportMetric(p10, "MS_ip_te_pll-P@10-related")
}

// BenchmarkFig11Retrieval regenerates Figure 11 (structural vs annotational
// retrieval) and reports BW's and MS's P@10 at relevance related.
func BenchmarkFig11Retrieval(b *testing.B) {
	s := setupBench(b)
	var bw, ms float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig11(context.Background(), s)
		bw = f.Curves["BW"][eval.Related][9]
		ms = f.Curves["MS_ip_te_pll"][eval.Related][9]
	}
	b.ReportMetric(bw, "BW-P@10-related")
	b.ReportMetric(ms, "MS-P@10-related")
}

// BenchmarkFig12Galaxy regenerates Figure 12 (the Galaxy corpus) and reports
// the structural lead over BW on the sparsely annotated corpus.
func BenchmarkFig12Galaxy(b *testing.B) {
	s := setupBench(b)
	var lead float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig12(s)
		var bw, ms float64
		for _, r := range f.Rows {
			switch r.Name {
			case "BW":
				bw = r.Correctness.Mean
			case "MS_np_ta_gw1":
				ms = r.Correctness.Mean
			}
		}
		lead = ms - bw
	}
	b.ReportMetric(lead, "structural-lead-on-galaxy")
}

// BenchmarkRuntimeStats regenerates the Section 5.1.4 statistics and reports
// the te pair-comparison reduction factor (the paper's 2.3x).
func BenchmarkRuntimeStats(b *testing.B) {
	s := setupBench(b)
	var factor float64
	for i := 0; i < b.N; i++ {
		r := experiments.RuntimeStats(s)
		factor = r.ReductionFactor
	}
	b.ReportMetric(factor, "te-reduction-factor")
}

// --- Ablation benches (design choices from DESIGN.md) ---

func benchWorkflowPair(n int) (*workflow.Workflow, *workflow.Workflow) {
	mk := func(id string, shift int) *workflow.Workflow {
		w := workflow.New(id)
		labels := []string{"fetch_sequence", "run_ncbi_blast", "parse_blast_report",
			"filter_hits", "split_string", "merge_list", "render_image", "map_accession",
			"get_pathways", "color_pathway", "fetch_annotation", "summarise"}
		for i := 0; i < n; i++ {
			w.AddModule(&workflow.Module{
				Label: labels[(i+shift)%len(labels)],
				Type:  workflow.TypeWSDL,
			})
			if i > 0 {
				_ = w.AddEdge(i-1, i)
			}
		}
		return w
	}
	return mk("a", 0), mk("b", 1)
}

// BenchmarkAblationGEDBeamWidth compares GED cost across beam widths on a
// 10-node pair: exactness vs time, the trade-off behind the retrieval
// configuration.
func BenchmarkAblationGEDBeamWidth(b *testing.B) {
	for _, width := range []int{4, 16, 64, 0} { // 0 = exact
		name := "exact"
		if width > 0 {
			name = string(rune('0'+width/10)) + string(rune('0'+width%10))
		}
		b.Run("beam="+name, func(b *testing.B) {
			wa, wb := benchWorkflowPair(10)
			g1 := ged.NewGraph(wa.Size())
			g2 := ged.NewGraph(wb.Size())
			for i := range g1.Labels {
				g1.Labels[i] = i % 7
			}
			for i := range g2.Labels {
				g2.Labels[i] = (i + 1) % 7
			}
			for _, e := range wa.Edges {
				g1.AddEdge(e.From, e.To)
			}
			for _, e := range wb.Edges {
				g2.AddEdge(e.From, e.To)
			}
			b.ReportAllocs()
			var cost float64
			for i := 0; i < b.N; i++ {
				c, err := ged.Distance(g1, g2, ged.Options{BeamWidth: width})
				if err != nil {
					b.Fatal(err)
				}
				cost = c
			}
			b.ReportMetric(cost, "edit-cost")
		})
	}
}

// BenchmarkAblationMappingStrategy compares greedy vs maximum-weight module
// mapping on realistic weight matrices.
func BenchmarkAblationMappingStrategy(b *testing.B) {
	wa, wb := benchWorkflowPair(12)
	w, _ := module.WeightMatrix(wa, wb, module.PLL(), module.AllPairs)
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matching.Greedy(w)
		}
	})
	b.Run("maxweight", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matching.MaxWeight(w)
		}
	})
}

// BenchmarkAblationPreselection measures the pair-comparison saving of te
// vs ta on full MS comparisons.
func BenchmarkAblationPreselection(b *testing.B) {
	s := setupBench(b)
	wfs := s.Taverna.Repo.Snapshot().Workflows()
	for _, presel := range []module.Preselect{module.AllPairs, module.TypeEquivalence} {
		b.Run(presel.String(), func(b *testing.B) {
			var counter measures.PairCounter
			cfg := s.StructuralConfig(measures.ModuleSets, false, presel, module.PLL())
			cfg.Counter = &counter
			m := measures.NewStructural(cfg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Compare(wfs[i%40], wfs[(i+40)%80]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(counter.Compared())/float64(b.N), "module-pairs/op")
		})
	}
}

// BenchmarkAblationPathCap measures Path Sets comparison under different
// path enumeration caps on branch-heavy workflows.
func BenchmarkAblationPathCap(b *testing.B) {
	// Stacked diamonds: exponential path count, the worst case for PS.
	mk := func(id string) *workflow.Workflow {
		w := workflow.New(id)
		prev := w.AddModule(&workflow.Module{Label: "src", Type: workflow.TypeWSDL})
		for d := 0; d < 6; d++ {
			b1 := w.AddModule(&workflow.Module{Label: "branch_a", Type: workflow.TypeWSDL})
			b2 := w.AddModule(&workflow.Module{Label: "branch_b", Type: workflow.TypeWSDL})
			j := w.AddModule(&workflow.Module{Label: "join", Type: workflow.TypeWSDL})
			_ = w.AddEdge(prev, b1)
			_ = w.AddEdge(prev, b2)
			_ = w.AddEdge(b1, j)
			_ = w.AddEdge(b2, j)
			prev = j
		}
		return w
	}
	wa, wb := mk("a"), mk("b")
	for _, cap := range []int{8, 64, 0} { // 0 = default (4096)
		name := "default"
		switch cap {
		case 8:
			name = "8"
		case 64:
			name = "64"
		}
		b.Run("cap="+name, func(b *testing.B) {
			m := measures.NewStructural(measures.Config{
				Topology:  measures.PathSets,
				Scheme:    module.PLL(),
				Normalize: true,
				PathCap:   cap,
			})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Compare(wa, wb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Mutable-repository benches (PR 2: incremental index + score cache) ---

var (
	benchMutOnce sync.Once
	benchMutRepo *corpus.Repository
)

// benchRepo1k is a 1000-workflow corpus for the incremental-maintenance
// benchmarks (the acceptance criterion's scale).
func benchRepo1k(b *testing.B) *corpus.Repository {
	b.Helper()
	benchMutOnce.Do(func() {
		p := gen.Taverna()
		p.Workflows = 1000
		p.Clusters = 40
		c, err := gen.Generate(p, 17)
		if err != nil {
			b.Fatal(err)
		}
		benchMutRepo = c.Repo
	})
	if benchMutRepo == nil {
		b.Fatal("corpus generation failed earlier")
	}
	return benchMutRepo
}

// BenchmarkFullRebuild measures a from-scratch index.Build over a
// 1k-workflow corpus — the cost the old build-once Engine paid on every
// repository change.
func BenchmarkFullRebuild(b *testing.B) {
	repo := benchRepo1k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Build(repo.Snapshot())
	}
}

// BenchmarkIncrementalInsert measures one incremental Insert into an index
// already holding the 1k corpus — the cost Engine.Apply pays per added
// workflow. The acceptance criterion wants this ≫ faster than a full Build.
func BenchmarkIncrementalInsert(b *testing.B) {
	repo := benchRepo1k(b)
	idx := index.Build(repo.Snapshot())
	template := repo.Snapshot().Workflows()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wf := template.Clone()
		wf.ID = fmt.Sprintf("bench-insert-%d", i)
		if err := idx.Insert(wf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalInsertDelete measures a steady-state churn op
// (insert + delete of the same workflow), including amortized compactions.
func BenchmarkIncrementalInsertDelete(b *testing.B) {
	repo := benchRepo1k(b)
	idx := index.Build(repo.Snapshot())
	template := repo.Snapshot().Workflows()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wf := template.Clone()
		wf.ID = fmt.Sprintf("bench-churn-%d", i)
		if err := idx.Insert(wf); err != nil {
			b.Fatal(err)
		}
		if !idx.Delete(wf.ID) {
			b.Fatal("delete failed")
		}
	}
}

// benchDupesEngine builds a 150-workflow engine for the duplicate-scan
// cache benches.
func benchDupesEngine(b *testing.B, opts ...wfsim.Option) *wfsim.Engine {
	b.Helper()
	p := wfsim.TavernaProfile()
	p.Workflows = 150
	p.Clusters = 10
	c, err := wfsim.GenerateCorpus(p, 23)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := wfsim.New(c.Repo, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkDuplicatesCold measures the full pair-matrix duplicate scan with
// no score cache — every iteration re-runs every pairwise evaluation.
func BenchmarkDuplicatesCold(b *testing.B) {
	eng := benchDupesEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Duplicates(ctx, 0.95, wfsim.DuplicateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDuplicatesWarm measures the same scan with a warmed score cache:
// the acceptance criterion's zero-pairwise-evaluation repeat run.
func BenchmarkDuplicatesWarm(b *testing.B) {
	eng := benchDupesEngine(b, wfsim.WithScoreCache(1<<17))
	ctx := context.Background()
	if _, _, err := eng.Duplicates(ctx, 0.95, wfsim.DuplicateOptions{}); err != nil {
		b.Fatal(err) // warm-up
	}
	b.ReportAllocs()
	b.ResetTimer()
	var stats wfsim.Stats
	for i := 0; i < b.N; i++ {
		var err error
		if _, stats, err = eng.Duplicates(ctx, 0.95, wfsim.DuplicateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.CacheHits), "cache-hits/op")
	b.ReportMetric(float64(stats.CacheMisses), "cache-misses/op")
}

// BenchmarkBioConsertConsensus measures consensus aggregation at the study's
// scale (10 candidates, 15 raters).
func BenchmarkBioConsertConsensus(b *testing.B) {
	s := setupBench(b)
	q := s.Study.Queries[0]
	inputs := s.Study.RaterRankings[q]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rank.BioConsert(inputs)
	}
}

// BenchmarkCorpusGeneration measures full Taverna-profile corpus generation.
func BenchmarkCorpusGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSetup(experiments.Quick(), int64(i+2)); err != nil {
			b.Fatal(err)
		}
	}
}
