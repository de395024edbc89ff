package experiments

import (
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/measures"
	"repro/internal/rank"
	"repro/internal/stats"
)

// tieEps groups algorithm scores within this distance into one rank bucket.
// Coarse measures (label matching, tag overlap) produce exact ties anyway;
// the epsilon only absorbs floating-point noise.
const tieEps = 1e-9

// AlgoRankingResult is one algorithm's performance in the ranking
// experiment: the per-query correctness values (for the bar + error bars of
// the paper's figures) and mean completeness (the black squares).
type AlgoRankingResult struct {
	Name string
	// Correctness summarises per-query ranking correctness.
	Correctness stats.Summary
	// PerQuery holds the correctness value per evaluated query, aligned
	// with Queries, for paired significance testing.
	PerQuery []float64
	// Queries are the query IDs actually evaluated (BT skips tagless
	// queries; queries whose pairs all failed are skipped too).
	Queries []string
	// Completeness is the mean ranking completeness.
	Completeness float64
	// SkippedPairs counts (query, candidate) pairs the measure could not
	// score (GED timeouts).
	SkippedPairs int
	// SkippedQueries counts queries excluded from evaluation.
	SkippedQueries int
}

// EvaluateRanking runs one measure over a ranking study: for every query the
// candidates are scored, ranked, and compared against the expert consensus.
//
// Following the paper: pairs the measure cannot score are disregarded
// (the candidate is left unranked, giving an incomplete algorithm ranking);
// Bag of Tags cannot rank queries without tags, and such queries are not
// considered for its ranking performance.
func EvaluateRanking(c *gen.Corpus, study *eval.RankingStudy, m measures.Measure) AlgoRankingResult {
	res := AlgoRankingResult{Name: m.Name()}
	var completeness []float64
	snap := c.Repo.Snapshot()
	for _, q := range study.Queries {
		qwf := snap.Get(q)
		if _, isBT := m.(measures.BagOfTags); isBT && !measures.HasTags(qwf) {
			res.SkippedQueries++
			continue
		}
		scores := map[string]float64{}
		for _, cand := range study.Candidates[q] {
			s, err := m.Compare(qwf, snap.Get(cand))
			if err != nil {
				res.SkippedPairs++
				continue
			}
			scores[cand] = s
		}
		if len(scores) < 2 {
			res.SkippedQueries++
			continue
		}
		algoRank := rank.FromScores(scores, tieEps)
		consensus := study.Consensus[q]
		res.PerQuery = append(res.PerQuery, rank.Correctness(consensus, algoRank))
		res.Queries = append(res.Queries, q)
		completeness = append(completeness, rank.Completeness(consensus, algoRank))
	}
	res.Correctness = stats.Summarize(res.PerQuery)
	res.Completeness = stats.Mean(completeness)
	return res
}

// EvaluateAll runs several measures over the same study.
func EvaluateAll(c *gen.Corpus, study *eval.RankingStudy, ms ...measures.Measure) []AlgoRankingResult {
	out := make([]AlgoRankingResult, len(ms))
	for i, m := range ms {
		out[i] = EvaluateRanking(c, study, m)
	}
	return out
}

// PairedSignificance runs a paired t-test between two algorithms'
// per-query correctness values over their common queries. It returns the
// test result and whether enough common queries existed.
func PairedSignificance(a, b AlgoRankingResult) (stats.TTestResult, bool) {
	bByQuery := map[string]float64{}
	for i, q := range b.Queries {
		bByQuery[q] = b.PerQuery[i]
	}
	var xs, ys []float64
	for i, q := range a.Queries {
		if y, ok := bByQuery[q]; ok {
			xs = append(xs, a.PerQuery[i])
			ys = append(ys, y)
		}
	}
	res, err := stats.PairedTTest(xs, ys)
	if err != nil {
		return stats.TTestResult{}, false
	}
	return res, true
}
