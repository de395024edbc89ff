package eval

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/rank"
)

func TestMedianRating(t *testing.T) {
	cases := []struct {
		in   []Rating
		want Rating
	}{
		{[]Rating{Similar, Similar, Related}, Similar},
		{[]Rating{Dissimilar, Related, VerySimilar}, Related},
		{[]Rating{Unsure, Similar, Unsure}, Similar},
		{[]Rating{Unsure, Unsure}, Unsure},
		{nil, Unsure},
		{[]Rating{Related, Similar}, Related}, // even: lower middle
		{[]Rating{VerySimilar}, VerySimilar},
	}
	for _, c := range cases {
		if got := MedianRating(c.in); got != c.want {
			t.Errorf("MedianRating(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRatingFromTruth(t *testing.T) {
	cases := []struct {
		sim  float64
		want Rating
	}{
		{1.0, VerySimilar},
		{0.75, VerySimilar},
		{0.6, Similar},
		{0.5, Similar},
		{0.3, Related},
		{0.25, Related},
		{0.1, Dissimilar},
		{-0.2, Dissimilar},
	}
	for _, c := range cases {
		if got := RatingFromTruth(c.sim); got != c.want {
			t.Errorf("RatingFromTruth(%v) = %v, want %v", c.sim, got, c.want)
		}
	}
}

func TestRatingString(t *testing.T) {
	if VerySimilar.String() != "very similar" || Unsure.String() != "unsure" {
		t.Error("Rating.String wrong")
	}
	if Rating(42).String() != "invalid" {
		t.Error("invalid rating string")
	}
}

func TestPanelDeterministic(t *testing.T) {
	p1 := NewPanel(15, 7)
	p2 := NewPanel(15, 7)
	if len(p1) != 15 {
		t.Fatalf("panel size = %d", len(p1))
	}
	for i := range p1 {
		if p1[i].Bias != p2[i].Bias || p1[i].Noise != p2[i].Noise {
			t.Fatal("panel not deterministic")
		}
		r1 := p1[i].Rate(0.6)
		r2 := p2[i].Rate(0.6)
		if r1 != r2 {
			t.Fatal("ratings not deterministic")
		}
	}
}

func TestRaterFollowsTruthOnAverage(t *testing.T) {
	panel := NewPanel(15, 3)
	// High-truth pairs must be rated above low-truth pairs by the median.
	var hi, lo []Rating
	for _, r := range panel {
		hi = append(hi, r.Rate(0.9))
		lo = append(lo, r.Rate(0.05))
	}
	if MedianRating(hi) < Similar {
		t.Errorf("median of high-truth ratings = %v, want >= similar", MedianRating(hi))
	}
	if MedianRating(lo) > Related {
		t.Errorf("median of low-truth ratings = %v, want <= related", MedianRating(lo))
	}
}

func TestRankingFromRatings(t *testing.T) {
	ratings := map[string]Rating{
		"a": VerySimilar,
		"b": Similar,
		"c": Similar,
		"d": Dissimilar,
		"e": Unsure,
	}
	r := RankingFromRatings(ratings)
	if r.Len() != 4 {
		t.Fatalf("ranked items = %d, want 4 (unsure dropped)", r.Len())
	}
	pos := r.Positions()
	if !(pos["a"] < pos["b"] && pos["b"] == pos["c"] && pos["c"] < pos["d"]) {
		t.Errorf("ranking order wrong: %v", r)
	}
	if _, ok := pos["e"]; ok {
		t.Error("unsure item ranked")
	}
}

func TestPrecisionAtK(t *testing.T) {
	results := []string{"a", "b", "c", "d"}
	ratings := map[string]Rating{
		"a": VerySimilar, "b": Related, "c": Dissimilar, "d": Similar,
	}
	if got := PrecisionAtK(results, ratings, Related, 4); got != 0.75 {
		t.Errorf("P@4(related) = %v, want 0.75", got)
	}
	if got := PrecisionAtK(results, ratings, Similar, 4); got != 0.5 {
		t.Errorf("P@4(similar) = %v, want 0.5", got)
	}
	if got := PrecisionAtK(results, ratings, VerySimilar, 1); got != 1.0 {
		t.Errorf("P@1(verysim) = %v, want 1", got)
	}
	// Short result lists: missing positions are misses.
	if got := PrecisionAtK([]string{"a"}, ratings, Related, 10); got != 0.1 {
		t.Errorf("P@10 with one result = %v, want 0.1", got)
	}
	// Unrated results are irrelevant.
	if got := PrecisionAtK([]string{"zz"}, ratings, Related, 1); got != 0 {
		t.Errorf("P@1 unrated = %v, want 0", got)
	}
	if got := PrecisionAtK(results, ratings, Related, 0); got != 0 {
		t.Errorf("P@0 = %v, want 0", got)
	}
}

func TestPrecisionCurveMonotoneK(t *testing.T) {
	results := []string{"a", "b", "c"}
	ratings := map[string]Rating{"a": Similar, "b": Dissimilar, "c": Similar}
	curve := PrecisionCurve(results, ratings, Similar, 3)
	want := []float64{1, 0.5, 2.0 / 3.0}
	for i := range want {
		if math.Abs(curve[i]-want[i]) > 1e-9 {
			t.Errorf("curve[%d] = %v, want %v", i, curve[i], want[i])
		}
	}
}

func TestMeanCurves(t *testing.T) {
	got := MeanCurves([][]float64{{1, 0}, {0, 1}})
	if got[0] != 0.5 || got[1] != 0.5 {
		t.Errorf("MeanCurves = %v", got)
	}
	if MeanCurves(nil) != nil {
		t.Error("MeanCurves(nil) should be nil")
	}
}

func testCorpus(t *testing.T) *gen.Corpus {
	t.Helper()
	p := gen.Taverna()
	p.Workflows = 150
	p.Clusters = 8
	c, err := gen.Generate(p, 21)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildRankingStudy(t *testing.T) {
	c := testCorpus(t)
	panel := NewPanel(15, 4)
	study := BuildRankingStudy(c, 6, panel, 9)
	if len(study.Queries) != 6 {
		t.Fatalf("queries = %d", len(study.Queries))
	}
	for _, q := range study.Queries {
		cands := study.Candidates[q]
		if len(cands) != 10 {
			t.Errorf("query %s: %d candidates, want 10", q, len(cands))
		}
		seen := map[string]bool{}
		for _, id := range cands {
			if id == q {
				t.Errorf("query %s is its own candidate", q)
			}
			if seen[id] {
				t.Errorf("duplicate candidate %s for %s", id, q)
			}
			seen[id] = true
			if c.Repo.Snapshot().Get(id) == nil {
				t.Errorf("candidate %s not in corpus", id)
			}
		}
		if len(study.RaterRankings[q]) != 15 {
			t.Errorf("rater rankings = %d", len(study.RaterRankings[q]))
		}
		consensus := study.Consensus[q]
		if consensus.Len() == 0 {
			t.Errorf("empty consensus for %s", q)
		}
		if err := consensus.Validate(); err != nil {
			t.Errorf("consensus invalid: %v", err)
		}
	}
	if study.RatingsGiven != 6*10*15 {
		t.Errorf("RatingsGiven = %d, want 900", study.RatingsGiven)
	}
}

func TestConsensusCorrelatesWithTruth(t *testing.T) {
	// The consensus ranking must be positively correlated with the ranking
	// induced directly by ground truth — otherwise the rating pipeline is
	// broken.
	c := testCorpus(t)
	panel := NewPanel(15, 4)
	study := BuildRankingStudy(c, 4, panel, 9)
	for _, q := range study.Queries {
		truthScores := map[string]float64{}
		for _, cand := range study.Candidates[q] {
			truthScores[cand] = c.Truth.Sim(q, cand)
		}
		truthRank := rank.FromScores(truthScores, 0)
		if corr := rank.Correctness(truthRank, study.Consensus[q]); corr < 0.5 {
			t.Errorf("query %s: consensus-truth correctness %.2f < 0.5", q, corr)
		}
	}
}

func TestBuildRetrievalStudy(t *testing.T) {
	c := testCorpus(t)
	panel := NewPanel(15, 4)
	ids := c.Repo.Snapshot().IDs()
	pooled := map[string][]string{
		ids[0]: {ids[1], ids[2], ids[3]},
		ids[5]: {ids[6], ids[7]},
	}
	study := BuildRetrievalStudy(c, pooled, panel)
	if len(study.Queries) != 2 {
		t.Fatalf("queries = %d", len(study.Queries))
	}
	if study.RatingsGiven != 5*15 {
		t.Errorf("RatingsGiven = %d, want 75", study.RatingsGiven)
	}
	for q, results := range pooled {
		for _, r := range results {
			if _, ok := study.MedianRatings[q][r]; !ok {
				t.Errorf("missing median rating for (%s, %s)", q, r)
			}
		}
	}
}
