// Fixture: canonical pair handling the pairorder analyzer must accept.
package fixture

import (
	"sort"

	"repro/internal/scorecache"
	"repro/internal/workflow"
)

func scoreKey(measure string, a, b *workflow.Workflow, rev, proj uint64) scorecache.Key {
	x, y := workflow.OrderPair(a, b)
	return scorecache.PairKey(measure, x.SymID(), y.SymID(), rev, proj)
}

// Comparator callbacks order lists, not score pairs: exempt.
func sortByID(wfs []*workflow.Workflow) {
	sort.Slice(wfs, func(i, j int) bool { return wfs[i].ID < wfs[j].ID })
}

// Comparing non-workflow IDs is out of the analyzer's scope.
func minString(a, b string) string {
	if a < b {
		return a
	}
	return b
}
