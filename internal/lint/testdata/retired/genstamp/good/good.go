// Fixture: stamped responses, which the genstamp analyzer once accepted.
// Checked together with the serve package's own files, every way a body
// carries the stamp of the view it was read from must still compile.
package serve

import (
	"net/http"

	"repro/pkg/wfsim"
)

// Stamped directly, by embedding.
type listResponse struct {
	Items []string `json:"items"`
	stamp
}

// Stamped one level down, through a shared payload.
type countResponse struct {
	Count int          `json:"count"`
	Stats statsPayload `json:"stats"`
}

func (r countResponse) stamped() stamp { return r.Stats.stamp }

func handleList(w http.ResponseWriter, rd wfsim.Reader) {
	writeJSON(w, http.StatusOK, listResponse{stamp: stampOf(rd)})
	writeJSON(w, http.StatusOK, &listResponse{stamp: stampVector([]uint64{1, 2})})
	writeJSON(w, http.StatusOK, countResponse{Stats: statsPayload{stamp: stampOf(rd)}})
	writeError(w, http.StatusBadRequest, "bad %s", "request")
}
