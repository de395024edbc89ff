// Fixture: request functions that pin one view each, which the onepin
// analyzer must accept.
package fixture

import (
	"context"

	"repro/pkg/wfsim"
)

// fetch answers the lookup and stamps it from one Reader.
func fetch(eng *wfsim.Engine, id string) (*wfsim.Workflow, uint64) {
	rd := eng.Read()
	return rd.Get(id), rd.Frontier().Generation
}

// rank looks every candidate up in one Reader; a range operand is evaluated
// once, so the pin in it is not per iteration.
func rank(eng *wfsim.Engine, query string) map[string]*wfsim.Workflow {
	out := map[string]*wfsim.Workflow{}
	for _, wf := range eng.Read().Workflows() {
		out[wf.ID] = wf
	}
	return out
}

// search makes one wrapper call, which pins one view.
func search(ctx context.Context, eng *wfsim.Engine, id string) ([]wfsim.Result, error) {
	res, _, err := eng.SearchID(ctx, id, wfsim.SearchOptions{})
	return res, err
}
