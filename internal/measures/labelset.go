package measures

import (
	"repro/internal/workflow"
)

// Label-set similarity helpers over the canonical module-label sets of
// two workflows. They run on the interned representation as word-parallel
// kernels: a 256-bit popcount prescreen rejects provably disjoint pairs and
// a single sorted-merge pass counts the overlap. Like every kernel below the
// Measure interface they compare symbols of one table, so a pair one table
// did not resolve is resolved into a fresh one first (oneTable).

// LabelSets is the pure label-set measure: workflow similarity as the
// Jaccard index (or containment coefficient) of the canonical module-label
// sets, ignoring topology and module weights entirely. It is the cheapest
// structural signal the engine has — on interned corpora a pair costs a
// bitset prescreen plus one sorted merge — and serves as a registrable
// custom measure (wfsim.Registry.Register) and as the reference workload
// for label-set scan benchmarks.
type LabelSets struct {
	// Containment switches from Jaccard to |A ∩ B| / min(|A|, |B|).
	Containment bool
}

// Name implements Measure ("LS", "LS-containment").
func (l LabelSets) Name() string {
	if l.Containment {
		return "LS-containment"
	}
	return "LS"
}

// Compare implements Measure.
func (l LabelSets) Compare(a, b *workflow.Workflow) (float64, error) {
	if l.Containment {
		return LabelContainment(a, b), nil
	}
	return LabelJaccard(a, b), nil
}

// LabelJaccard returns |A ∩ B| / |A ∪ B| over canonical label sets. Two
// empty sets yield 0 (no evidence), mirroring textutil.SetJaccard.
func LabelJaccard(a, b *workflow.Workflow) float64 {
	na, nb, shared := labelOverlap(a, b)
	union := na + nb - shared
	if union == 0 {
		return 0
	}
	return float64(shared) / float64(union)
}

// LabelContainment returns |A ∩ B| / min(|A|, |B|) over canonical label
// sets — 1 when the smaller vocabulary is fully contained in the larger.
// Either set empty yields 0.
func LabelContainment(a, b *workflow.Workflow) float64 {
	na, nb, shared := labelOverlap(a, b)
	m := na
	if nb < m {
		m = nb
	}
	if m == 0 {
		return 0
	}
	return float64(shared) / float64(m)
}

// labelOverlap returns the two set sizes and the overlap.
func labelOverlap(a, b *workflow.Workflow) (na, nb, shared int) {
	a, b = oneTable(a, b)
	return len(a.LabelSet()), len(b.LabelSet()), workflow.LabelOverlap(a, b)
}
