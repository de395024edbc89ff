// Fixture: unstamped responses, which the genstamp analyzer once flagged.
// Checked together with the serve package's own files: writeJSON takes only
// a body that embeds the stamp of the view it was read from, so neither
// write compiles.
package serve

import "net/http"

type listResponse struct {
	Items []string `json:"items"`
}

func handleList(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, listResponse{}) // want `listResponse does not implement response`
}

func handleHealth(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"}) // want `map\[string\]any does not implement response`
}
