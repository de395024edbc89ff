package eval

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/gen"
	"repro/internal/rank"
)

// Rater simulates one workflow expert: it perceives the latent ground-truth
// similarity through personal bias and noise, quantises onto the Likert
// scale, and is occasionally unsure. Fifteen such raters substitute for the
// paper's 15 experts from six institutions; their disagreement structure is
// what Figure 4 inspects.
type Rater struct {
	// Name identifies the rater ("expert03").
	Name string
	// Bias shifts perceived similarity (a lenient or strict rater).
	Bias float64
	// Noise is the standard deviation of per-pair perception noise.
	Noise float64
	// UnsureProb is the probability of abstaining on a pair.
	UnsureProb float64

	rng *rand.Rand
}

// NewPanel creates n raters with deterministic per-rater characteristics
// derived from the seed: biases in roughly ±0.08, noise between 0.05 and
// 0.13, unsure probability between 2% and 8%.
func NewPanel(n int, seed int64) []*Rater {
	src := rand.New(rand.NewSource(seed))
	panel := make([]*Rater, n)
	for i := range panel {
		panel[i] = &Rater{
			Name:       fmt.Sprintf("expert%02d", i+1),
			Bias:       (src.Float64() - 0.5) * 0.16,
			Noise:      0.05 + src.Float64()*0.08,
			UnsureProb: 0.02 + src.Float64()*0.06,
			rng:        rand.New(rand.NewSource(src.Int63())),
		}
	}
	return panel
}

// Rate produces the rater's Likert judgement for a pair with latent truth
// similarity sim.
func (r *Rater) Rate(sim float64) Rating {
	if r.rng.Float64() < r.UnsureProb {
		return Unsure
	}
	perceived := sim + r.Bias + r.rng.NormFloat64()*r.Noise
	return RatingFromTruth(perceived)
}

// RatePair rates the pair (queryID, otherID) against ground truth.
func (r *Rater) RatePair(truth *gen.Truth, queryID, otherID string) Rating {
	return r.Rate(truth.Sim(queryID, otherID))
}

// RankingFromRatings turns one rater's ratings of a candidate set into a
// ranking with ties: candidates bucketed by Likert level, best first;
// unsure-rated candidates are unranked (incomplete ranking).
func RankingFromRatings(ratings map[string]Rating) rank.Ranking {
	buckets := map[Rating][]string{}
	for id, rt := range ratings {
		if rt == Unsure {
			continue
		}
		buckets[rt] = append(buckets[rt], id)
	}
	var out rank.Ranking
	for _, level := range []Rating{VerySimilar, Similar, Related, Dissimilar} {
		if ids := buckets[level]; len(ids) > 0 {
			slices.Sort(ids)
			out.Buckets = append(out.Buckets, ids)
		}
	}
	return out
}
