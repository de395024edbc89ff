package experiments

import (
	"fmt"

	"repro/internal/measures"
	"repro/internal/module"
)

// RuntimeStatsResult reproduces the runtime observations quoted in the text
// of Section 5.1.4:
//
//   - type-equivalence preselection reduces pairwise module comparisons by a
//     factor of ~2.3 (172k -> 74k on the paper's experiment-1 pairs);
//   - importance projection reduces the average modules per workflow from
//     11.3 to 4.7;
//   - GED becomes computable for (almost) all pairs under the projection
//     (217/240 without ip vs 239/240 with ip under the paper's 5-minute
//     per-pair budget).
type RuntimeStatsResult struct {
	// PairsTotal is the number of module pairs in the Cartesian products of
	// the experiment-1 workflow pairs (the paper's 172k).
	PairsTotal int64
	// PairsCompared is the number admitted by te (the paper's 74k).
	PairsCompared int64
	// ReductionFactor is PairsTotal / PairsCompared (the paper's 2.3).
	ReductionFactor float64
	// MeanModulesBefore / MeanModulesAfter are the corpus-wide module
	// counts per workflow without and with importance projection
	// (the paper's 11.3 and 4.7).
	MeanModulesBefore float64
	MeanModulesAfter  float64
	// GEDPairs is the number of experiment-1 workflow pairs.
	GEDPairs int
	// GEDComputableNP / GEDComputableIP count pairs whose edit distance was
	// computed within the per-pair budget without / with projection.
	GEDComputableNP int
	GEDComputableIP int
}

// RuntimeStats measures the three quantities on the ranking study's
// workflow pairs.
func RuntimeStats(s *Setup) RuntimeStatsResult {
	var out RuntimeStatsResult

	// Module-pair comparison reduction under te, measured with MS_pll over
	// all experiment-1 (query, candidate) pairs.
	var counter measures.PairCounter
	cfg := s.StructuralConfig(measures.ModuleSets, false, module.TypeEquivalence, module.PLL())
	cfg.Counter = &counter
	m := measures.NewStructural(cfg)
	snap := s.Taverna.Repo.Snapshot()
	for _, q := range s.Study.Queries {
		qwf := snap.Get(q)
		for _, cand := range s.Study.Candidates[q] {
			_, _ = m.Compare(qwf, snap.Get(cand)) //wfsimvet:ignore errpath timing run; only the pair counters are measured
		}
	}
	out.PairsTotal = counter.Total()
	out.PairsCompared = counter.Compared()
	if out.PairsCompared > 0 {
		out.ReductionFactor = float64(out.PairsTotal) / float64(out.PairsCompared)
	}

	// Importance projection module counts over the full corpus.
	out.MeanModulesBefore, out.MeanModulesAfter = s.Projector.MeanModuleCount(snap.Workflows())

	// GED computability within the per-pair budget, np vs ip, in exact
	// mode (beam 0): this isolates how the importance projection turns an
	// intractable exact comparison into a tractable one.
	npCfg := s.StructuralConfig(measures.GraphEdit, false, module.AllPairs, module.PW0())
	npCfg.GEDBeamWidth = 0
	ipCfg := s.StructuralConfig(measures.GraphEdit, true, module.TypeEquivalence, module.PW0())
	ipCfg.GEDBeamWidth = 0
	geNP := measures.NewStructural(npCfg)
	geIP := measures.NewStructural(ipCfg)
	for _, q := range s.Study.Queries {
		qwf := snap.Get(q)
		for _, cand := range s.Study.Candidates[q] {
			out.GEDPairs++
			cwf := snap.Get(cand)
			if _, err := geNP.Compare(qwf, cwf); err == nil {
				out.GEDComputableNP++
			}
			if _, err := geIP.Compare(qwf, cwf); err == nil {
				out.GEDComputableIP++
			}
		}
	}
	return out
}

// String renders the statistics block.
func (r RuntimeStatsResult) String() string {
	return fmt.Sprintf(`== runtime: repository-knowledge statistics (Section 5.1.4) ==
module pair comparisons (ta):      %d
module pair comparisons (te):      %d
reduction factor:                  %.2fx  (paper: 2.3x, 172k/74k)
mean modules/workflow (np):        %.1f   (paper: 11.3)
mean modules/workflow (ip):        %.1f   (paper: 4.7)
GED computable pairs without ip:   %d/%d  (paper: 217/240)
GED computable pairs with ip:      %d/%d  (paper: 239/240)
`,
		r.PairsTotal, r.PairsCompared, r.ReductionFactor,
		r.MeanModulesBefore, r.MeanModulesAfter,
		r.GEDComputableNP, r.GEDPairs, r.GEDComputableIP, r.GEDPairs)
}
