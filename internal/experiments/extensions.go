package experiments

// Extensions beyond the paper's evaluation, implementing two directions its
// conclusion names as future work (Section 6):
//
//  1. deriving module importance automatically from repository usage
//     frequencies instead of manual type curation (AutoProjection);
//  2. going beyond plain mean-score ensembles by tuning member weights on
//     held-out queries (TunedEnsemble), a lightweight form of stacking.

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/measures"
	"repro/internal/module"
	"repro/internal/repoknow"
)

// AutoProjectionResult compares the manual type-based importance projection
// with the automatic frequency-derived one.
type AutoProjectionResult struct {
	// Manual is MS_ip_te_pll with the paper's manual type-based scorer.
	Manual AlgoRankingResult
	// Auto is the same measure with a frequency-derived scorer: modules
	// whose (lowercased) label accounts for a large share of corpus usage
	// are deemed unimportant.
	Auto AlgoRankingResult
	// None is the unprojected baseline MS_np_te_pll.
	None AlgoRankingResult
	// MeanModulesManual/MeanModulesAuto are the projected corpus means.
	MeanModulesManual float64
	MeanModulesAuto   float64
}

// AutoProjection evaluates frequency-based automatic importance scoring
// (the paper's proposed future work) against the manual curation.
func AutoProjection(s *Setup) AutoProjectionResult {
	wfs := s.Taverna.Repo.Snapshot().Workflows()
	usage := repoknow.CollectUsage(wfs)
	freqScorer := repoknow.NewFrequencyScorer(usage)
	// Threshold 0.65 removes labels spread across more than ~35% of the
	// repository. Document frequency separates shims from core operations
	// imperfectly (very popular functional families look like shims), which
	// is exactly why the paper leaves automatic derivation as future work.
	autoProj := repoknow.NewProjector(freqScorer, 0.65)

	manual := s.Structural(measures.ModuleSets, true, module.TypeEquivalence, module.PLL())

	autoCfg := s.StructuralConfig(measures.ModuleSets, false, module.TypeEquivalence, module.PLL())
	autoCfg.Project = autoProj.Project
	auto := measures.NewStructural(autoCfg)

	none := s.Structural(measures.ModuleSets, false, module.TypeEquivalence, module.PLL())

	var out AutoProjectionResult
	out.Manual = EvaluateRanking(s.Taverna, s.Study, manual)
	out.Auto = EvaluateRanking(s.Taverna, s.Study, auto)
	out.Auto.Name = "MS_autoip_te_pll"
	out.None = EvaluateRanking(s.Taverna, s.Study, none)
	_, out.MeanModulesManual = s.Projector.MeanModuleCount(wfs)
	_, out.MeanModulesAuto = autoProj.MeanModuleCount(wfs)
	return out
}

// String renders the comparison table.
func (r AutoProjectionResult) String() string {
	out := "== ext-autoip: automatic importance projection (paper future work) ==\n"
	out += fmt.Sprintf("%-28s %10s %9s %13s\n", "algorithm", "corr.mean", "corr.sd", "completeness")
	for _, row := range []AlgoRankingResult{r.None, r.Manual, r.Auto} {
		out += fmt.Sprintf("%-28s %10.3f %9.3f %13.3f\n",
			row.Name, row.Correctness.Mean, row.Correctness.StdDev, row.Completeness)
	}
	out += fmt.Sprintf("mean modules after projection: manual=%.1f auto=%.1f\n",
		r.MeanModulesManual, r.MeanModulesAuto)
	return out
}

// TunedEnsembleResult compares the paper's plain mean ensemble with a
// weight-tuned variant fitted on half the queries and evaluated on the
// other half.
type TunedEnsembleResult struct {
	// MemberA/MemberB evaluated on the held-out queries.
	MemberA, MemberB AlgoRankingResult
	// Mean is the untuned 1:1 ensemble on the held-out queries.
	Mean AlgoRankingResult
	// Tuned is the grid-search-weighted ensemble on the held-out queries.
	Tuned AlgoRankingResult
	// BestWeight is the tuned weight of member A (member B gets 1-w).
	BestWeight float64
}

// TunedEnsemble fits the BW:structural mixing weight by grid search on the
// first half of the ranking study's queries (training) and reports all
// variants on the second half (evaluation) — a minimal stacking setup in the
// spirit of the paper's "boosting or stacking" outlook.
func TunedEnsemble(s *Setup) TunedEnsembleResult {
	memberA := measures.Measure(measures.BagOfWords{})
	memberB := measures.Measure(s.Structural(measures.ModuleSets, true, module.TypeEquivalence, module.PLL()))

	queries := s.Study.Queries
	split := len(queries) / 2
	train := subsetStudy(s.Study, queries[:split])
	test := subsetStudy(s.Study, queries[split:])

	// Grid search the training queries.
	bestW, bestCorr := 0.5, -2.0
	for w := 0.0; w <= 1.0001; w += 0.1 {
		ens := measures.NewWeightedEnsemble([]measures.Measure{memberA, memberB}, []float64{w, 1 - w})
		r := EvaluateRanking(s.Taverna, train, ens)
		if r.Correctness.Mean > bestCorr {
			bestCorr = r.Correctness.Mean
			bestW = w
		}
	}

	var out TunedEnsembleResult
	out.BestWeight = bestW
	out.MemberA = EvaluateRanking(s.Taverna, test, memberA)
	out.MemberB = EvaluateRanking(s.Taverna, test, memberB)
	out.Mean = EvaluateRanking(s.Taverna, test, measures.NewEnsemble(memberA, memberB))
	tuned := measures.NewWeightedEnsemble([]measures.Measure{memberA, memberB}, []float64{bestW, 1 - bestW})
	out.Tuned = EvaluateRanking(s.Taverna, test, tuned)
	out.Tuned.Name = fmt.Sprintf("ENS[w=%.1f](%s+%s)", bestW, memberA.Name(), memberB.Name())
	return out
}

// subsetStudy restricts a ranking study to a subset of its queries.
func subsetStudy(study *eval.RankingStudy, queries []string) *eval.RankingStudy {
	return &eval.RankingStudy{
		Queries:       queries,
		Candidates:    study.Candidates,
		RaterRankings: study.RaterRankings,
		Consensus:     study.Consensus,
	}
}

// String renders the held-out comparison.
func (r TunedEnsembleResult) String() string {
	out := "== ext-tuned: weight-tuned ensemble on held-out queries (paper future work) ==\n"
	out += fmt.Sprintf("%-36s %10s %9s\n", "algorithm", "corr.mean", "corr.sd")
	for _, row := range []AlgoRankingResult{r.MemberA, r.MemberB, r.Mean, r.Tuned} {
		out += fmt.Sprintf("%-36s %10.3f %9.3f\n", row.Name, row.Correctness.Mean, row.Correctness.StdDev)
	}
	out += fmt.Sprintf("tuned weight on %s: %.1f\n", r.MemberA.Name, r.BestWeight)
	return out
}
