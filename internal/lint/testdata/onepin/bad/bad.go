// Fixture: request functions the onepin analyzer must flag when the package
// is checked under pkg/wfsim/serve or cmd/...: each pins two views of the
// engine, so a commit between the pins tears what it reports.
package fixture

import "repro/pkg/wfsim"

// fetch is the workflow fetch handler that read the workflow and its
// generation stamp from two views: a Replace between them stamps the old
// body with the new generation.
func fetch(eng *wfsim.Engine, id string) (*wfsim.Workflow, uint64) {
	wf := eng.Read().Get(id)
	return wf, eng.Read().Frontier().Generation // want `fetch pins a second view of the engine with Read`
}

// stats is the stats handler that read the generation, the vector and the
// workflow count from three views.
func stats(eng *wfsim.Engine) (uint64, []uint64, int) {
	gen := eng.Read().Frontier().Generation
	gens := eng.Read().Frontier().Generations // want `stats pins a second view of the engine with Read`
	return gen, gens, eng.Size()
}

// rank looks its candidates up one view each.
func rank(eng *wfsim.Engine, ids []string) []*wfsim.Workflow {
	var out []*wfsim.Workflow
	for _, id := range ids {
		out = append(out, eng.Read().Get(id)) // want `rank pins a second view of the engine with Read`
	}
	return out
}
