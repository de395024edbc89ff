// Fixture: the suppression directive convention, checked with the pairorder
// analyzer.
package fixture

import "repro/internal/workflow"

// A justified directive on the line above suppresses the finding.
func suppressedAbove(a, b *workflow.Workflow) bool {
	//wfsimvet:ignore pairorder orders a list for display, not a score pair
	return a.ID < b.ID
}

// A justified directive on the same line suppresses the finding.
func suppressedInline(a, b *workflow.Workflow) bool {
	return a.ID < b.ID //wfsimvet:ignore pairorder orders a list for display, not a score pair
}

// A directive without a justification is malformed: it suppresses nothing
// and is itself reported.
func bareDirective(a, b *workflow.Workflow) bool {
	//wfsimvet:ignore pairorder
	return a.ID < b.ID
}

// A directive for a different analyzer does not apply.
func wrongAnalyzer(a, b *workflow.Workflow) bool {
	//wfsimvet:ignore onepin orders are fine here
	return a.ID < b.ID
}
