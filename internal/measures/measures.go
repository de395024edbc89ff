// Package measures implements the workflow similarity measures of
// Starlinger et al. (PVLDB 2014) inside one uniform framework:
//
//   - structural measures — Module Sets (MS), Path Sets (PS) and Graph Edit
//     Distance (GE) — parameterised by a module-comparison scheme, a
//     module-pair preselection strategy, a module-mapping strategy, optional
//     importance-projection preprocessing and optional normalization;
//   - annotation measures — Bag of Words (BW) over titles and descriptions,
//     Bag of Tags (BT) over keyword tags;
//   - ensembles combining any set of measures by their mean score.
//
// Measure names follow the paper's notation, e.g. "MS_ip_te_pll" is Module
// Sets comparison with importance projection, type-equivalence preselection
// and label-edit-distance module similarity.
package measures

import (
	"sync/atomic"

	"repro/internal/workflow"
)

// Measure computes the similarity of two scientific workflows. Higher is
// more similar; normalized measures return values in [0,1].
type Measure interface {
	// Name returns the identifier in the paper's notation.
	Name() string
	// Compare computes the similarity of a and b. An error indicates the
	// pair could not be scored (e.g. a GED timeout); the caller decides
	// whether to disregard the pair, as the paper does.
	Compare(a, b *workflow.Workflow) (float64, error)
}

// Bounded is implemented by measures whose definition yields an exact upper
// bound on a pair's score for less than the price of the score. A top-k or
// threshold scan that already knows the lowest score it can still use (its
// floor) skips the pairs that provably fall below it, with no effect on its
// result. Both bounds hold for the float64 value Compare returns, not only
// for the real number it approximates.
//
// The bound comes in two strengths because a score cache sits between them:
// UpperBounds' bound costs a few loads per pair and is computed, once per
// candidate, before any cache lookup (a top-k scan also visits candidates in
// its descending order, see search.TopKFunc); CompareFloor may get as far as most of a comparison before it
// gives up, so it is for pairs nothing will remember. A measure without a
// bound simply does not implement the interface and is always compared —
// which is also how a scan tells whether to trust the bound or a heuristic
// candidate filter, so an implementation that could only answer +Inf must
// not exist (Structural.WithBound).
type Bounded interface {
	// UpperBounds returns the bound on a's pairs: a function returning, for
	// any b, a value no smaller than Compare(a, b) — +Inf when the measure
	// knows nothing about the pair — reading only what each workflow keeps
	// about itself after its first comparison. a's side of it is read here,
	// once, so a scan builds one function per query, not one per pair. The
	// function is safe for concurrent use.
	UpperBounds(a *workflow.Workflow) func(b *workflow.Workflow) float64
	// CompareFloor is Compare unless the measure can prove, on the way, that
	// Compare(a, b) < floor. It then stops and reports below = true; the
	// score returned with it is only an upper bound on Compare's, itself
	// below floor. below is never true when Compare(a, b) >= floor.
	CompareFloor(a, b *workflow.Workflow, floor float64) (score float64, below bool, err error)
}

// PairCounter accumulates module-pair comparison statistics across many
// workflow comparisons. It backs the paper's runtime observation that type
// equivalence reduces pairwise module comparisons by a factor of ~2.3.
// It is safe for concurrent use.
type PairCounter struct {
	total    atomic.Int64
	compared atomic.Int64
}

// Add records one weight-matrix computation's statistics.
func (c *PairCounter) Add(total, compared int) {
	if c == nil {
		return
	}
	c.total.Add(int64(total))
	c.compared.Add(int64(compared))
}

// Total returns the number of module pairs in all Cartesian products seen.
func (c *PairCounter) Total() int64 { return c.total.Load() }

// Compared returns the number of module pairs actually compared.
func (c *PairCounter) Compared() int64 { return c.compared.Load() }
