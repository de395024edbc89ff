package eval

import (
	"math/rand"
	"sort"

	"repro/internal/gen"
	"repro/internal/measures"
	"repro/internal/rank"
)

// RankingStudy is the artefact of the paper's first experiment (Section
// 4.2): query workflows, ten candidates each, per-rater rankings, and the
// BioConsert consensus per query. Algorithms are evaluated by ranking the
// candidates and comparing against the consensus.
type RankingStudy struct {
	// Queries are the query workflow IDs (the paper used 24).
	Queries []string
	// Candidates maps each query to its rated candidate workflows.
	Candidates map[string][]string
	// RaterRankings maps query -> one ranking per rater (incomplete where
	// the rater was unsure).
	RaterRankings map[string][]rank.Ranking
	// Consensus maps query -> BioConsert consensus ranking.
	Consensus map[string]rank.Ranking
	// RatingsGiven counts all non-query ratings collected (the paper
	// reports 2424 ratings overall across both experiments).
	RatingsGiven int
}

// BuildRankingStudy runs the first experiment's data collection protocol on
// a generated corpus: numQueries query workflows are drawn at random; for
// each, all other workflows are ranked by a naive annotation measure (Bag of
// Words) and 10 candidates are drawn from the top 10, the middle, and the
// lower 30 — then every rater on the panel rates every (query, candidate)
// pair and the ratings are aggregated with BioConsert.
func BuildRankingStudy(c *gen.Corpus, numQueries int, panel []*Rater, seed int64) *RankingStudy {
	rng := rand.New(rand.NewSource(seed))
	snap := c.Repo.Snapshot()
	ids := snap.IDs()
	queries := sampleIDs(rng, ids, numQueries)

	study := &RankingStudy{
		Candidates:    map[string][]string{},
		RaterRankings: map[string][]rank.Ranking{},
		Consensus:     map[string]rank.Ranking{},
	}
	study.Queries = queries
	bw := measures.BagOfWords{}

	for _, q := range queries {
		qwf := snap.Get(q)
		// Naive annotation ranking of the whole repository.
		var all []scored
		for _, wf := range snap.Workflows() {
			if wf.ID == q {
				continue
			}
			s, _ := bw.Compare(qwf, wf) //wfsimvet:ignore errpath ranking protocol scores every candidate; an incomparable pair correctly ranks at 0
			all = append(all, scored{wf.ID, s})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].s != all[j].s {
				return all[i].s > all[j].s
			}
			return all[i].id < all[j].id
		})
		// Draw 4 from the top 10, 3 from the middle, 3 from the lower 30.
		var cands []string
		cands = append(cands, drawFrom(rng, all, 0, min(10, len(all)), 4)...)
		midLo, midHi := len(all)/3, 2*len(all)/3
		cands = append(cands, drawFromExcluding(rng, all, midLo, midHi, 3, cands)...)
		loStart := len(all) - 30
		if loStart < 0 {
			loStart = 0
		}
		cands = append(cands, drawFromExcluding(rng, all, loStart, len(all), 3, cands)...)
		study.Candidates[q] = cands

		// Collect ratings and per-rater rankings.
		var rankings []rank.Ranking
		for _, rater := range panel {
			ratings := map[string]Rating{}
			for _, cand := range cands {
				rt := rater.RatePair(c.Truth, q, cand)
				ratings[cand] = rt
				study.RatingsGiven++
			}
			rankings = append(rankings, RankingFromRatings(ratings))
		}
		study.RaterRankings[q] = rankings
		study.Consensus[q] = rank.BioConsert(rankings)
	}
	return study
}

// RetrievalStudy is the artefact of the paper's second experiment: for each
// query, the pooled search results of all algorithms under test, rated by
// the panel and aggregated as the median — the ground truth for
// precision@k.
type RetrievalStudy struct {
	// Queries are the query workflow IDs (the paper used 8).
	Queries []string
	// MedianRatings maps query -> result workflow -> median rating.
	MedianRatings map[string]map[string]Rating
	// RatingsGiven counts all individual ratings collected.
	RatingsGiven int
}

// BuildRetrievalStudy rates the pooled results: pooled maps each query to
// the union of the algorithms' top-k lists (between 21 and 68 elements in
// the paper, depending on overlap).
func BuildRetrievalStudy(c *gen.Corpus, pooled map[string][]string, panel []*Rater) *RetrievalStudy {
	study := &RetrievalStudy{MedianRatings: map[string]map[string]Rating{}}
	for q := range pooled {
		study.Queries = append(study.Queries, q)
	}
	sort.Strings(study.Queries)
	for _, q := range study.Queries {
		med := map[string]Rating{}
		for _, res := range pooled[q] {
			var rs []Rating
			for _, rater := range panel {
				rs = append(rs, rater.RatePair(c.Truth, q, res))
				study.RatingsGiven++
			}
			med[res] = MedianRating(rs)
		}
		study.MedianRatings[q] = med
	}
	return study
}

// sampleIDs draws n distinct IDs uniformly.
func sampleIDs(rng *rand.Rand, ids []string, n int) []string {
	if n > len(ids) {
		n = len(ids)
	}
	perm := rng.Perm(len(ids))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = ids[perm[i]]
	}
	sort.Strings(out)
	return out
}

// scored pairs a workflow ID with a similarity score.
type scored struct {
	id string
	s  float64
}

// drawFrom draws up to n distinct IDs from all[lo:hi].
func drawFrom(rng *rand.Rand, all []scored, lo, hi, n int) []string {
	return drawFromExcluding(rng, all, lo, hi, n, nil)
}

// drawFromExcluding draws up to n distinct IDs from all[lo:hi], skipping IDs
// already in exclude.
func drawFromExcluding(rng *rand.Rand, all []scored, lo, hi, n int, exclude []string) []string {
	if lo < 0 {
		lo = 0
	}
	if hi > len(all) {
		hi = len(all)
	}
	if lo >= hi {
		return nil
	}
	ex := map[string]bool{}
	for _, id := range exclude {
		ex[id] = true
	}
	idx := rng.Perm(hi - lo)
	var out []string
	for _, i := range idx {
		if len(out) == n {
			break
		}
		id := all[lo+i].id
		if !ex[id] {
			out = append(out, id)
		}
	}
	return out
}
