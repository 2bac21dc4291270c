package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmuoutage/internal/obs"
)

// Span layers, outermost first. A request's spans nest in this order:
// the client call covers the router handler, which covers the backend
// handler it forwarded to. Replay's batch calls stand alone as par spans.
const (
	layerClient    = "client"
	layerRouter    = "router"
	layerHTTPServe = "httpserve"
	layerPar       = "par"
)

var layerDepth = map[string]int{layerClient: 0, layerRouter: 1, layerHTTPServe: 2}

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one request share its
// request ID (the X-Trace-Id the benchmark sets on the client side).
type span struct {
	id         string
	layer      string
	path       string
	start, end int64 // ns since the log's origin
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, which is how untraced runs leave every path bare.
type spanLog struct {
	t0 time.Time
	mu sync.Mutex
	sp []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) record(id, layer, path string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{id: id, layer: layer, path: path, start: int64(start.Sub(l.t0)), end: int64(end.Sub(l.t0))}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sp = append(l.sp, s)
}

// spans returns a copy of everything recorded so far.
func (l *spanLog) spans() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.sp...)
}

// wrap times every request through h as a span of layer, keyed by the
// request ID the caller put in the X-Trace-Id header. With a nil log it
// returns h itself.
func (l *spanLog) wrap(layer string, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		l.record(r.Header.Get(obs.TraceHeader), layer, r.URL.Path, start, time.Now())
	})
}

// requestIDs mints the 16-hex-digit request IDs the benchmark sets on
// every call, so the spans of one request can be joined across layers.
type requestIDs struct{ n atomic.Uint64 }

func (r *requestIDs) next() string { return fmt.Sprintf("%016x", r.n.Add(1)) }

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children are counted once, and children
// are clipped to the parent's interval.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}

// layerStat is the total and self time of one layer over a span set.
type layerStat struct {
	n     int
	total time.Duration
	self  time.Duration
}

func (s layerStat) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e6
}

func (s layerStat) selfMS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.self) / float64(s.n) / 1e6
}

// layerStats groups spans by request ID and computes, per layer, the
// mean duration and the mean self time. A span's children are the spans
// of the same request one layer further in (the next layer present in
// that request) whose interval overlaps it. Spans with no request ID
// are skipped, as are spans whose path keep rejects.
func layerStats(spans []span, keep func(span) bool) map[string]*layerStat {
	byID := map[string][]span{}
	for _, s := range spans {
		if s.id == "" || (keep != nil && !keep(s)) {
			continue
		}
		byID[s.id] = append(byID[s.id], s)
	}
	out := map[string]*layerStat{}
	for _, group := range byID {
		for _, p := range group {
			inner := -1
			for _, c := range group {
				if d := layerDepth[c.layer]; d > layerDepth[p.layer] && (inner < 0 || d < inner) {
					inner = d
				}
			}
			var kids []span
			for _, c := range group {
				if inner >= 0 && layerDepth[c.layer] == inner && c.start < p.end && c.end > p.start {
					kids = append(kids, c)
				}
			}
			st := out[p.layer]
			if st == nil {
				st = &layerStat{}
				out[p.layer] = st
			}
			st.n++
			st.total += p.dur()
			st.self += selfTime(p, kids)
		}
	}
	return out
}
