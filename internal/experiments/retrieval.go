package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/eval"
	"repro/internal/measures"
	"repro/internal/module"
	"repro/internal/search"
)

// Thresholds are the three relevance levels of the precision@k plots.
var Thresholds = []eval.Rating{eval.Related, eval.Similar, eval.VerySimilar}

// RetrievalResult holds precision@k curves for a set of algorithms at the
// three relevance thresholds — the content of Figures 10 and 11.
type RetrievalResult struct {
	ID      string
	Title   string
	Queries []string
	// Curves maps measure name -> threshold -> mean precision@k for
	// k = 1..10 ("User: median, Workflow: mean" in the paper's plots).
	Curves map[string]map[eval.Rating][]float64
	// PoolSizes reports the merged result-list length per query (21–68 in
	// the paper, depending on algorithm overlap).
	PoolSizes map[string]int
	// Skipped counts pairs each measure could not score during retrieval.
	Skipped map[string]int
}

// RunRetrieval reproduces the second experiment's protocol for a set of
// measures: each measure retrieves its top-10 from the full corpus for every
// query; the per-query result lists are merged; the merged pool is rated by
// the panel (median aggregation); every measure's ranked list is then scored
// by precision@k at each relevance threshold, averaged over queries. A
// cancelled or expired context aborts the retrieval phase via panic (the
// harness has no partial-result story), so callers that want cancellation
// should recover at the figure boundary.
func RunRetrieval(ctx context.Context, s *Setup, id, title string, ms []measures.Measure) RetrievalResult {
	queries := retrievalQueries(s)
	res := RetrievalResult{
		ID:        id,
		Title:     title,
		Queries:   queries,
		Curves:    map[string]map[eval.Rating][]float64{},
		PoolSizes: map[string]int{},
		Skipped:   map[string]int{},
	}

	// Retrieve per measure per query.
	perMeasure := map[string]map[string][]search.Result{}
	for _, m := range ms {
		perMeasure[m.Name()] = map[string][]search.Result{}
	}
	pooled := map[string][]string{}
	snap := s.Taverna.Repo.Snapshot()
	for _, q := range queries {
		qwf := snap.Get(q)
		var lists [][]search.Result
		for _, m := range ms {
			results, skipped, err := search.TopK(ctx, qwf, snap, m, search.Options{K: 10})
			if err != nil {
				panic(err) // only context errors are possible
			}
			perMeasure[m.Name()][q] = results
			res.Skipped[m.Name()] += skipped
			lists = append(lists, results)
		}
		pooled[q] = search.PoolResults(lists...)
		res.PoolSizes[q] = len(pooled[q])
	}

	// Rate the pooled lists once.
	study := eval.BuildRetrievalStudy(s.Taverna, pooled, s.Panel)

	// Precision curves per measure and threshold, mean over queries.
	for _, m := range ms {
		res.Curves[m.Name()] = map[eval.Rating][]float64{}
		for _, th := range Thresholds {
			var curves [][]float64
			for _, q := range queries {
				ids := search.IDs(perMeasure[m.Name()][q])
				curves = append(curves, eval.PrecisionCurve(ids, study.MedianRatings[q], th, 10))
			}
			res.Curves[m.Name()][th] = eval.MeanCurves(curves)
		}
	}
	return res
}

// retrievalQueries draws the retrieval queries from the ranking study's
// queries (the paper reused 8 of the 24), topping up from the corpus if the
// study has fewer queries than needed.
func retrievalQueries(s *Setup) []string {
	n := s.Scale.RetrievalQueries
	qs := append([]string(nil), s.Study.Queries...)
	rng := rand.New(rand.NewSource(s.Seed + 5))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	if n > len(qs) {
		n = len(qs)
	}
	out := qs[:n]
	sort.Strings(out)
	return out
}

// Fig10 reproduces Figure 10: retrieval precision of simMS under the module
// similarity schemes pw3, pll, plm, with and without repository knowledge
// (np_ta vs ip_te), at the three relevance thresholds.
func Fig10(ctx context.Context, s *Setup) RetrievalResult {
	ms := []measures.Measure{
		s.Structural(measures.ModuleSets, false, module.AllPairs, module.PW3()),
		s.Structural(measures.ModuleSets, true, module.TypeEquivalence, module.PW3()),
		s.Structural(measures.ModuleSets, false, module.AllPairs, module.PLL()),
		s.Structural(measures.ModuleSets, true, module.TypeEquivalence, module.PLL()),
		s.Structural(measures.ModuleSets, false, module.AllPairs, module.PLM()),
		s.Structural(measures.ModuleSets, true, module.TypeEquivalence, module.PLM()),
	}
	return RunRetrieval(ctx, s, "fig10", "Retrieval precision@k: MS module schemes x {np_ta, ip_te}", ms)
}

// Fig11 reproduces Figure 11: retrieval precision of the structural (pll)
// and annotational measures. GE runs with importance projection and a beam,
// as full-corpus exact edit distance is unaffordable — the paper likewise
// reports GE retrieval only on preprocessed graphs.
func Fig11(ctx context.Context, s *Setup) RetrievalResult {
	geCfg := s.StructuralConfig(measures.GraphEdit, true, module.TypeEquivalence, module.PLL())
	geCfg.Project = s.Projector.Project
	geCfg.GEDBeamWidth = s.Scale.GEDBeamRetrieval
	ms := []measures.Measure{
		measures.BagOfWords{},
		measures.BagOfTags{},
		s.Structural(measures.ModuleSets, false, module.AllPairs, module.PLL()),
		s.Structural(measures.ModuleSets, true, module.TypeEquivalence, module.PLL()),
		s.Structural(measures.PathSets, false, module.AllPairs, module.PLL()),
		s.Structural(measures.PathSets, true, module.TypeEquivalence, module.PLL()),
		measures.NewStructural(geCfg),
	}
	return RunRetrieval(ctx, s, "fig11", "Retrieval precision@k: structural vs annotational measures", ms)
}

// String renders one precision table per threshold.
func (r RetrievalResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "queries: %s\n", strings.Join(r.Queries, ", "))
	names := make([]string, 0, len(r.Curves))
	for n := range r.Curves {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, th := range Thresholds {
		fmt.Fprintf(&b, "-- relevance >= %s --\n", th)
		fmt.Fprintf(&b, "%-28s", "algorithm")
		for k := 1; k <= 10; k++ {
			fmt.Fprintf(&b, " P@%-4d", k)
		}
		fmt.Fprintln(&b)
		for _, n := range names {
			fmt.Fprintf(&b, "%-28s", n)
			for _, v := range r.Curves[n][th] {
				fmt.Fprintf(&b, " %5.2f ", v)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}
