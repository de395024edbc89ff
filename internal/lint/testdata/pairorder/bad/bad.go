// Fixture: every finding the pairorder analyzer must produce.
package fixture

import (
	"repro/internal/scorecache"
	"repro/internal/workflow"
	"repro/pkg/wfsim"
)

func scoreKey(measure string, a, b *workflow.Workflow, rev, proj uint64) scorecache.Key {
	x, y := a, b
	if a.ID > b.ID { // want `ad-hoc workflow ID ordering`
		x, y = b, a
	}
	return scorecache.PairKey(measure, x.SymID(), y.SymID(), rev, proj)
}

func firstOf(a, b *workflow.Workflow) *workflow.Workflow {
	if a.ID <= b.ID { // want `ad-hoc workflow ID ordering`
		return a
	}
	return b
}

// The public alias names the same type: wfsim.Workflow is workflow.Workflow.
func firstOfAlias(a, b *wfsim.Workflow) *wfsim.Workflow {
	if a.ID < b.ID { // want `ad-hoc workflow ID ordering`
		return a
	}
	return b
}
