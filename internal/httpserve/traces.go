package httpserve

import (
	"net/http"

	"pmuoutage/api"
	"pmuoutage/internal/obs"
)

// handleTraces serves the tail-sampled trace store: the full retained
// list (newest first) by default, or one trace by ?id=. With tracing
// disabled the list is empty rather than an error — the endpoint's
// shape does not depend on configuration.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	tr := s.svc.Tracer()
	if id := r.URL.Query().Get("id"); id != "" {
		t, ok := tr.TraceByID(id)
		if !ok {
			api.WriteError(w, api.CodeNotFound, "trace not retained (dropped by tail sampling, evicted, or never seen)", obs.TraceID(r.Context()))
			return
		}
		writeJSON(w, http.StatusOK, t)
		return
	}
	traces := tr.Traces()
	if traces == nil {
		traces = []api.Trace{}
	}
	writeJSON(w, http.StatusOK, api.TraceList{Traces: traces})
}
