package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pmuoutage/internal/obs"
)

func sp(id, layer string, start, end int64) span {
	return span{id: id, layer: layer, path: "/v1/detect", start: start, end: end}
}

func TestSelfTime(t *testing.T) {
	parent := sp("a", layerClient, 0, 100)
	for _, tc := range []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"no children", nil, 100},
		{"one child", []span{sp("a", layerRouter, 10, 40)}, 70},
		{"disjoint children", []span{sp("a", layerRouter, 10, 20), sp("a", layerRouter, 50, 80)}, 60},
		{"overlapping children count once", []span{sp("a", layerRouter, 10, 50), sp("a", layerRouter, 30, 70)}, 40},
		{"nested child inside child", []span{sp("a", layerRouter, 10, 60), sp("a", layerRouter, 20, 30)}, 50},
		{"children clipped to the parent", []span{sp("a", layerRouter, -20, 10), sp("a", layerRouter, 90, 150)}, 80},
		{"child outside the parent", []span{sp("a", layerRouter, 200, 300)}, 100},
		{"child covers all", []span{sp("a", layerRouter, 0, 100)}, 0},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Nested spans of one request: client covers router covers httpserve.
// Each layer's self time excludes only the next layer in, and a
// failover's two backend spans both count against the router.
func TestLayerStatsNested(t *testing.T) {
	spans := []span{
		sp("r1", layerClient, 0, 100),
		sp("r1", layerRouter, 10, 90),
		sp("r1", layerHTTPServe, 20, 60),
		// r2: failover, two backend attempts under one router span.
		sp("r2", layerClient, 200, 300),
		sp("r2", layerRouter, 205, 295),
		sp("r2", layerHTTPServe, 210, 230),
		sp("r2", layerHTTPServe, 240, 280),
		// r3: no router; the client's child is the backend.
		sp("r3", layerClient, 400, 450),
		sp("r3", layerHTTPServe, 410, 440),
		// Spans without a request ID are not joined to anything.
		sp("", layerHTTPServe, 0, 1000),
	}
	st := layerStats(spans, nil)
	check := func(layer string, n int, total, self time.Duration) {
		t.Helper()
		s := st[layer]
		if s == nil || s.n != n || s.total != total || s.self != self {
			t.Errorf("%s: got %+v, want n=%d total=%v self=%v", layer, s, n, total, self)
		}
	}
	check(layerClient, 3, 100+100+50, (100-80)+(100-90)+(50-30))
	check(layerRouter, 2, 80+90, (80-40)+(90-60))
	check(layerHTTPServe, 4, 40+20+40+30, 40+20+40+30)

	kept := layerStats(spans, func(s span) bool { return s.id != "r2" })
	if kept[layerRouter].n != 1 {
		t.Errorf("filter: router spans = %d, want 1", kept[layerRouter].n)
	}
}

func TestSpanLogWrap(t *testing.T) {
	var nilLog *spanLog
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := nilLog.wrap(layerRouter, h); got == nil {
		t.Fatal("nil log must return the handler itself")
	}
	nilLog.record("x", layerClient, "/", time.Now(), time.Now()) // no-op, no panic

	l := newSpanLog()
	var ids requestIDs
	id := ids.next()
	if len(id) != 16 || id == ids.next() {
		t.Fatalf("request IDs must be 16 hex digits and distinct, got %q", id)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", nil)
	req.Header.Set(obs.TraceHeader, id)
	l.wrap(layerRouter, h).ServeHTTP(httptest.NewRecorder(), req)
	got := l.spans()
	if len(got) != 1 || got[0].id != id || got[0].layer != layerRouter || got[0].path != "/v1/detect" || got[0].end < got[0].start {
		t.Fatalf("recorded spans = %+v", got)
	}
}
