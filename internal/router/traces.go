package router

import (
	"encoding/json"
	"net/http"

	"pmuoutage/api"
	"pmuoutage/internal/obs"
)

// handleFleet serves the aggregated fleet-health report: per-backend
// cumulative counters and ejection history plus primary-pool SLO
// signals over the rolling window.
func (r *Router) handleFleet(w http.ResponseWriter, req *http.Request) {
	api.WriteJSON(w, http.StatusOK, r.fleet.health(r.desperate.Load()))
}

// handleTraces serves the router's retained traces. The list form is
// the router's own ring, served by its tracer; the by-ID form
// additionally asks every backend for its half of the trace and merges
// the spans, so one fetch shows the full route→proxy→backend-stage
// tree. Backend misses are fine — tail sampling decides independently
// per process, so the merged view is "everything anyone retained".
func (r *Router) handleTraces(w http.ResponseWriter, req *http.Request) {
	id := req.URL.Query().Get("id")
	if id == "" {
		r.tracer.ServeHTTP(w, req)
		return
	}
	tr, found := r.tracer.TraceByID(id)
	seen := map[string]bool{}
	for _, s := range tr.Spans {
		seen[s.ID] = true
	}
	for _, p := range []*Pool{r.primary, r.canary} {
		if p == nil {
			continue
		}
		for _, b := range p.backends {
			raw, err := b.cli.GetRaw(req.Context(), "/debug/traces?id="+id)
			if err != nil || raw.Status != http.StatusOK {
				continue
			}
			var bt api.Trace
			if json.Unmarshal(raw.Body, &bt) != nil || bt.TraceID != id {
				continue
			}
			if !found {
				// The router dropped its half (or restarted); adopt the
				// backend's keep verdict so the merged trace reports one.
				tr.TraceID, tr.Kept, found = bt.TraceID, bt.Kept, true
			}
			tr.DroppedSpans += bt.DroppedSpans
			for _, s := range bt.Spans {
				if seen[s.ID] {
					continue
				}
				seen[s.ID] = true
				tr.Spans = append(tr.Spans, s)
			}
		}
	}
	if !found {
		api.WriteError(w, api.CodeNotFound, "trace not retained by the router or any backend", obs.TraceID(req.Context()))
		return
	}
	// Re-derive the envelope over the merged span set: the trace now
	// starts at the earliest span anywhere and ends at the latest.
	var first, last int64
	for i, s := range tr.Spans {
		end := s.StartUnixNS + s.DurationNS
		if i == 0 || s.StartUnixNS < first {
			first = s.StartUnixNS
		}
		if end > last {
			last = end
		}
	}
	tr.StartUnixNS, tr.DurationNS = first, last-first
	api.WriteJSON(w, http.StatusOK, tr)
}
