// Fixture: every finding the pairorder analyzer must produce.
package fixture

import (
	"repro/internal/scorecache"
	"repro/internal/workflow"
)

func scoreKey(measure string, a, b *workflow.Workflow, rev, proj uint64) scorecache.Key {
	x, y := a, b
	if a.ID > b.ID { // want `ad-hoc workflow ID ordering`
		x, y = b, a
	}
	return scorecache.Key{Measure: measure, A: x.SymID(), B: y.SymID(), Rev: rev, Proj: proj} // want `raw scorecache.Key literal`
}

func firstOf(a, b *workflow.Workflow) *workflow.Workflow {
	if a.ID <= b.ID { // want `ad-hoc workflow ID ordering`
		return a
	}
	return b
}
