package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pmuoutage/api"
)

// stageTest is the root span stage the ingress test opens, as a server
// opens its own.
const stageTest = "http"

// TestIngress drives the shared trace ingress, Ingress then ServeRoot
// under a root span, as cmd/outaged and cmd/outagerouter run it, with
// tracing off and on. The trace ID comes from a well-formed Traceparent
// over X-Trace-Id, from X-Trace-Id verbatim when Traceparent is absent
// or malformed, and is minted as 16 hex characters when neither is
// sent; the handler sees the echoed ID on its context. X-Span-Id echoes
// the root span only with a tracer, and a 5xx marks that span as an
// error.
func TestIngress(t *testing.T) {
	const (
		tpID     = "0123456789abcdef"
		tpParent = "00000000000000ff"
		tp       = "00-" + tpID + "-" + tpParent + "-01"
	)
	for _, c := range []struct {
		name, traceparent, traceID string
		status                     int
		wantID, wantParent         string // wantID "" expects a minted ID
		wantErr                    string
	}{
		{"traceparent wins", tp, "req-42", http.StatusOK, tpID, tpParent, ""},
		{"malformed traceparent", "00-" + tpID + "-zz-01", "req-42", http.StatusOK, "req-42", "", ""},
		{"caller ID verbatim", "", "req-42", http.StatusNotFound, "req-42", "", ""},
		{"minted", "", "", http.StatusOK, "", "", ""},
		{"5xx marks the root", tp, "", http.StatusServiceUnavailable, tpID, tpParent, "Service Unavailable"},
	} {
		for _, tr := range []*Tracer{nil, NewTracer(TracerConfig{SampleEvery: 1})} {
			name := c.name + " untraced"
			if tr != nil {
				name = c.name + " traced"
			}
			t.Run(name, func(t *testing.T) {
				req := httptest.NewRequest(http.MethodPost, "/v1/detect", nil)
				if c.traceparent != "" {
					req.Header.Set(TraceParentHeader, c.traceparent)
				}
				if c.traceID != "" {
					req.Header.Set(TraceHeader, c.traceID)
				}
				var seen string
				next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					seen = TraceID(r.Context())
					w.WriteHeader(c.status)
				})
				rec := httptest.NewRecorder()
				ctx, span := tr.StartSpan(Ingress(rec, req), stageTest)
				if got := ServeRoot(span, next, rec, req.WithContext(ctx)); got != c.status || rec.Code != c.status {
					t.Fatalf("ServeRoot = %d, recorded %d, want %d", got, rec.Code, c.status)
				}
				id := rec.Header().Get(TraceHeader)
				if c.wantID != "" && id != c.wantID {
					t.Fatalf("X-Trace-Id = %q, want %q", id, c.wantID)
				}
				if _, ok := parseID(id); c.wantID == "" && !ok {
					t.Fatalf("minted X-Trace-Id %q, want 16 hex characters", id)
				}
				if seen != id {
					t.Fatalf("handler saw trace %q, echoed %q", seen, id)
				}
				spanID := rec.Header().Get(SpanHeader)
				if tr == nil {
					if spanID != "" {
						t.Fatalf("untraced X-Span-Id = %q, want none", spanID)
					}
					return
				}
				got, ok := tr.TraceByID(id)
				if !ok || len(got.Spans) != 1 {
					t.Fatalf("trace %s: kept %v with %d spans, want the root alone", id, ok, len(got.Spans))
				}
				root := got.Spans[0]
				if !root.Root || root.ID != spanID || root.Stage != stageTest || root.Attrs[attrPath] != "/v1/detect" {
					t.Fatalf("root span %+v, want the root %q on stage %q with path /v1/detect", root, spanID, stageTest)
				}
				if root.Parent != c.wantParent || root.Err != c.wantErr {
					t.Fatalf("root parent %q err %q, want %q and %q", root.Parent, root.Err, c.wantParent, c.wantErr)
				}
			})
		}
	}
}

// TestTracesEndpoint: a tracer serves GET /debug/traces itself. A nil
// tracer answers an empty list, not an error, and an unretained ID
// answers 404 not_found; a kept trace is served by list and by ID.
func TestTracesEndpoint(t *testing.T) {
	get := func(tr *Tracer, target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		tr.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return rec
	}
	var off *Tracer
	if rec := get(off, "/debug/traces"); rec.Code != http.StatusOK || rec.Body.String() != "{\"traces\":[]}\n" {
		t.Fatalf("nil tracer list: %d %q, want 200 and an empty list", rec.Code, rec.Body.String())
	}
	on := NewTracer(TracerConfig{SampleEvery: 1})
	id := drive(on, 0, nil)
	for _, tr := range []*Tracer{off, on} {
		rec := get(tr, "/debug/traces?id=ffffffffffffffff")
		if env, ok := api.DecodeError(rec.Body.Bytes()); rec.Code != http.StatusNotFound || !ok || env.Code != api.CodeNotFound {
			t.Fatalf("unretained ID: %d %s, want 404 not_found", rec.Code, rec.Body.Bytes())
		}
	}
	var list api.TraceList
	if rec := get(on, "/debug/traces"); json.Unmarshal(rec.Body.Bytes(), &list) != nil || len(list.Traces) != 1 || list.Traces[0].TraceID != id {
		t.Fatalf("list: %d %s, want trace %s alone", rec.Code, rec.Body.Bytes(), id)
	}
	var one api.Trace
	if rec := get(on, "/debug/traces?id="+id); json.Unmarshal(rec.Body.Bytes(), &one) != nil || one.TraceID != id {
		t.Fatalf("by ID: %d %s, want trace %s", rec.Code, rec.Body.Bytes(), id)
	}
}
