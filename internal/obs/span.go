package obs

import (
	"context"
	"net/http"
	"sync"
	"time"

	"pmuoutage/api"
)

// Span tracing with tail-based sampling.
//
// Every hop starts a span (or records a completed one with RecordSpan);
// spans accumulate per trace ID in a pending table, and the trace is
// finalized when its root span — the one started at process ingress —
// ends. Only then does the tracer decide whether to keep the trace:
// slow (root latency over a threshold), erroneous (any span carries an
// error), or randomly sampled at a low rate. Kept traces land in a
// fixed-size ring served at GET /debug/traces; everything else is
// dropped. A pending entry's span slice grows as spans arrive, and a
// finalized trace's entry is reused by a later trace, so a dropped
// trace allocates nothing in the tracer once entries are warm.
//
// A nil *Tracer is the disabled state: StartSpan and End are
// allocation-free no-ops, and RecordSpan only observes its histogram
// (AllocsPerRun-pinned), so tracing can be compiled into every hot path
// unconditionally.

// TraceParentHeader carries trace ID plus parent span ID across the
// wire, traceparent-style: "00-<trace 16 hex>-<span 16 hex>-01".
// (The W3C header uses 128/64-bit IDs; ours are 64/64, so the format
// is deliberately a dialect, same layout with a shorter trace field.)
const TraceParentHeader = "Traceparent"

// SpanHeader echoes, on every response, the ID of the span that served
// the request — the hook that lets a client stitch its view of a call
// to the server's retained trace.
const SpanHeader = "X-Span-Id"

// FormatTraceParent renders the wire header for a trace ID (16 hex
// chars, as minted by NewTraceID) and a parent span ID. A zero span ID
// means "no parent span": the receiver's root span becomes a child of
// the trace only. Any other trace ID cannot ride the header, so the
// result is "" and the ID travels in X-Trace-Id alone.
func FormatTraceParent(traceID string, span uint64) string {
	if _, ok := parseID(traceID); !ok {
		return ""
	}
	var buf [39]byte
	buf[0], buf[1], buf[2] = '0', '0', '-'
	copy(buf[3:19], traceID)
	buf[19] = '-'
	for i := 35; i >= 20; i-- {
		buf[i] = hexdigits[span&0xf]
		span >>= 4
	}
	buf[36] = '-'
	buf[37], buf[38] = '0', '1'
	return string(buf[:])
}

// ParseTraceParent decodes the wire header. It accepts any flags byte
// and requires version 00; ok is false for anything malformed.
func ParseTraceParent(v string) (traceID string, parent uint64, ok bool) {
	if len(v) != 39 || v[0] != '0' || v[1] != '0' || v[2] != '-' || v[19] != '-' || v[36] != '-' {
		return "", 0, false
	}
	traceID = v[3:19]
	if _, ok := parseID(traceID); !ok {
		return "", 0, false
	}
	parent, ok = parseID(v[20:36])
	if !ok {
		return "", 0, false
	}
	return traceID, parent, true
}

// spanCtxKey keys the active *Span in a context.
type spanCtxKey struct{}

// remoteParentKey keys a parent span ID received over the wire, before
// any local span has started.
type remoteParentKey struct{}

// WithRemoteParent returns ctx carrying a parent span ID received over
// the wire; the next span started from ctx becomes its child. A zero
// parent returns ctx unchanged.
func WithRemoteParent(ctx context.Context, parent uint64) context.Context {
	if parent == 0 {
		return ctx
	}
	return context.WithValue(ctx, remoteParentKey{}, parent)
}

// SpanFromContext returns the active span carried by ctx, or nil.
//
//gridlint:zeroalloc
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// ParentSpanID returns the span ID a new child started from ctx would
// have as its parent: the active local span if any, else a remote
// parent from the wire, else zero. This is what the client stamps into
// the outgoing Traceparent header.
//
//gridlint:zeroalloc
func ParentSpanID(ctx context.Context) uint64 {
	if sp := SpanFromContext(ctx); sp != nil {
		return sp.id
	}
	parent, _ := ctx.Value(remoteParentKey{}).(uint64)
	return parent
}

// maxSpanAttrs bounds per-span attributes; SetAttr beyond the cap is
// silently dropped — attributes are debugging hints, not data.
const maxSpanAttrs = 4

// spanData is the recorded form of one completed span, copied into the
// tracer's pending table at End so the *Span itself is never retained.
type spanData struct {
	id     uint64
	parent uint64
	root   bool
	stage  string
	start  time.Time
	end    time.Time
	err    string
	attrs  [maxSpanAttrs][2]string
	nattrs int
}

// Span is one in-flight span. All methods are nil-safe: a nil *Span —
// what StartSpan returns when tracing is disabled — ignores every call.
// A Span must not be used after End.
type Span struct {
	tr      *Tracer
	traceID string
	ended   bool
	spanData
}

// ID returns the span ID as 16 hex characters (allocates; used for the
// response-header echo, not on per-sample paths).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return formatID(s.id)
}

// SetAttr attaches one key/value attribute, up to maxSpanAttrs.
//
//gridlint:zeroalloc
func (s *Span) SetAttr(k, v string) {
	if s == nil || s.nattrs >= maxSpanAttrs {
		return
	}
	s.attrs[s.nattrs][0], s.attrs[s.nattrs][1] = k, v
	s.nattrs++
}

// SetError marks the span (and so the trace) erroneous. Nil errors are
// ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.err = err.Error()
}

// SetErrorString is SetError for callers that already hold a message
// (e.g. an HTTP status text) — no error value allocated.
//
//gridlint:zeroalloc
func (s *Span) SetErrorString(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.err = msg
}

// End completes the span and hands it to the tracer; ending the root
// span finalizes the trace through tail sampling. Safe to call on nil
// and idempotent.
//
//gridlint:zeroalloc
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.finish()
}

func (s *Span) finish() {
	s.ended = true
	s.end = time.Now()
	s.tr.record(s.traceID, &s.spanData)
}

// TracerConfig sizes a Tracer. The zero value gets usable defaults; a
// negative SlowThreshold disables the latency rule, SampleEvery 0
// disables random sampling.
type TracerConfig struct {
	// Capacity is the retained-trace ring size (default 128).
	Capacity int
	// SlowThreshold keeps any trace whose root span takes at least
	// this long (default 100ms; negative disables).
	SlowThreshold time.Duration
	// SampleEvery keeps every Nth finalized trace regardless of
	// latency or errors (0 disables; 1 keeps everything).
	SampleEvery int
	// MaxSpans bounds spans retained per trace (default 64); extras
	// are counted in Trace.DroppedSpans.
	MaxSpans int
	// MaxPending bounds concurrently pending traces (default 1024);
	// spans for traces beyond the bound are dropped, which protects
	// the tracer against roots that never end (lost wire parents).
	MaxPending int
}

// pendingTrace accumulates a trace's spans until its root ends.
// spans grows as they arrive, up to MaxSpans.
type pendingTrace struct {
	spans   []spanData
	dropped int
	hasErr  bool
	touched time.Time // newest span end; stale entries are orphans
}

// stalePending is how long a pending trace may sit untouched before the
// tracer treats it as an orphan and sweeps it: its root already ended
// (a late shadow-copy span re-created the entry) or never will (a lost
// wire parent). Swept only when the table is full, so the common case
// pays nothing.
const stalePending = time.Minute

// maxFreePending bounds the finalized pending entries a tracer keeps
// for reuse, and so the spans their slices can hold to
// maxFreePending·MaxSpans; an entry finalized beyond it is left to the
// garbage collector.
const maxFreePending = 64

// Tracer records spans and tail-samples completed traces into a ring.
// A nil *Tracer is valid and disabled. All methods are safe for
// concurrent use.
type Tracer struct {
	cfg TracerConfig

	// kept/dropped count finalized traces by sampling outcome; wired
	// into a Registry via AttachCounter by whoever owns the tracer.
	kept    Counter
	dropped Counter

	mu        sync.Mutex
	pending   map[string]*pendingTrace
	free      []*pendingTrace // finalized entries for reuse
	finalized uint64
	ring      []api.Trace
	next      int
	filled    int
}

// NewTracer builds an enabled tracer. Use a nil *Tracer for "off".
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 128
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 100 * time.Millisecond
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 64
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 1024
	}
	return &Tracer{
		cfg:     cfg,
		pending: make(map[string]*pendingTrace),
		ring:    make([]api.Trace, cfg.Capacity),
	}
}

// KeptCounter and DroppedCounter expose the sampling-outcome counters
// for Registry.AttachCounter.
func (t *Tracer) KeptCounter() *Counter    { return &t.kept }
func (t *Tracer) DroppedCounter() *Counter { return &t.dropped }

// StartSpan starts a span for stage under ctx's trace (minting a trace
// ID if ctx has none) and returns a derived context carrying the span.
// The first span started with no local parent is the root: its End
// finalizes the trace. On a nil tracer it returns ctx and a nil span,
// allocation-free.
//
//gridlint:zeroalloc
func (t *Tracer) StartSpan(ctx context.Context, stage string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	return t.start(ctx, stage)
}

func (t *Tracer) start(ctx context.Context, stage string) (context.Context, *Span) {
	traceID := TraceID(ctx)
	if traceID == "" {
		traceID = NewTraceID()
		ctx = WithTraceID(ctx, traceID)
	}
	sp := &Span{tr: t, traceID: traceID}
	sp.id = mintID()
	sp.stage = stage
	sp.start = time.Now()
	if parent := SpanFromContext(ctx); parent != nil {
		sp.parent = parent.id
	} else {
		sp.parent, _ = ctx.Value(remoteParentKey{}).(uint64)
		sp.root = true
	}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// RecordSpan records one already-measured stage in one call — the form
// the shard pipeline and the HTTP encode step use, where stage timings
// exist as plain time.Times. It observes end-start on h (nil h: no
// histogram) and files a child span for stage under ctx's trace. The
// histogram is observed even on a nil tracer; the span is skipped,
// allocation-free, when the tracer is nil or ctx carries no trace ID.
//
//gridlint:zeroalloc
func (t *Tracer) RecordSpan(ctx context.Context, stage string, h *Histogram, start, end time.Time) {
	h.Observe(end.Sub(start))
	if t == nil {
		return
	}
	t.recordCtx(ctx, stage, start, end)
}

func (t *Tracer) recordCtx(ctx context.Context, stage string, start, end time.Time) {
	traceID := TraceID(ctx)
	if traceID == "" {
		return
	}
	d := spanData{id: mintID(), parent: ParentSpanID(ctx), stage: stage, start: start, end: end}
	t.record(traceID, &d)
}

// record files one completed span; a root span finalizes its trace.
func (t *Tracer) record(traceID string, d *spanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pt := t.pending[traceID]
	if pt == nil {
		if len(t.pending) >= t.cfg.MaxPending {
			t.sweepLocked(d.end)
		}
		full := len(t.pending) >= t.cfg.MaxPending
		if full && !d.root {
			return // shed: pending table full, root unseen
		}
		// A root over a full table must still finalize — sample it as a
		// single-span trace rather than leaking the decision.
		pt = t.newPendingLocked()
		if !full {
			t.pending[traceID] = pt
		}
	}
	if len(pt.spans) < t.cfg.MaxSpans {
		pt.spans = append(pt.spans, *d)
	} else {
		pt.dropped++
	}
	if d.end.After(pt.touched) {
		pt.touched = d.end
	}
	if d.err != "" {
		pt.hasErr = true
	}
	if !d.root {
		return
	}
	delete(t.pending, traceID)
	t.finalized++
	if reason := t.keepReason(pt, d); reason == "" {
		t.dropped.Inc()
	} else {
		t.kept.Inc()
		t.retain(traceID, pt, reason)
	}
	if len(t.free) < maxFreePending {
		*pt = pendingTrace{spans: pt.spans[:0]}
		t.free = append(t.free, pt)
	}
}

// newPendingLocked returns an empty pending entry, reusing a finalized
// one when the tracer holds any. Called with t.mu held.
func (t *Tracer) newPendingLocked() *pendingTrace {
	if n := len(t.free); n > 0 {
		pt := t.free[n-1]
		t.free = t.free[:n-1]
		return pt
	}
	return &pendingTrace{}
}

// sweepLocked deletes pending traces untouched for stalePending as of
// now. Called with t.mu held, only when the table is at capacity.
func (t *Tracer) sweepLocked(now time.Time) {
	cut := now.Add(-stalePending)
	for id, pt := range t.pending {
		if pt.touched.Before(cut) {
			delete(t.pending, id)
			t.dropped.Inc()
		}
	}
}

// keepReason is the tail-sampling decision, taken with every span of
// the trace in hand. Empty means drop.
func (t *Tracer) keepReason(pt *pendingTrace, root *spanData) string {
	if pt.hasErr {
		return api.TraceKeptError
	}
	if t.cfg.SlowThreshold >= 0 && root.end.Sub(root.start) >= t.cfg.SlowThreshold {
		return api.TraceKeptSlow
	}
	if t.cfg.SampleEvery > 0 && t.finalized%uint64(t.cfg.SampleEvery) == 0 {
		return api.TraceKeptSampled
	}
	return ""
}

// retain converts a kept trace to its wire form and writes it into the
// ring, overwriting the oldest entry. Called with t.mu held.
func (t *Tracer) retain(traceID string, pt *pendingTrace, reason string) {
	tr := api.Trace{
		TraceID:      traceID,
		Kept:         reason,
		DroppedSpans: pt.dropped,
		Spans:        make([]api.TraceSpan, len(pt.spans)),
	}
	var first, last time.Time
	for i := range pt.spans {
		d := &pt.spans[i]
		ws := api.TraceSpan{
			ID:          formatID(d.id),
			Stage:       d.stage,
			Root:        d.root,
			StartUnixNS: d.start.UnixNano(),
			DurationNS:  d.end.Sub(d.start).Nanoseconds(),
			Err:         d.err,
		}
		if d.parent != 0 {
			ws.Parent = formatID(d.parent)
		}
		if d.nattrs > 0 {
			ws.Attrs = make(map[string]string, d.nattrs)
			for a := 0; a < d.nattrs; a++ {
				ws.Attrs[d.attrs[a][0]] = d.attrs[a][1]
			}
		}
		tr.Spans[i] = ws
		if first.IsZero() || d.start.Before(first) {
			first = d.start
		}
		if d.end.After(last) {
			last = d.end
		}
	}
	tr.StartUnixNS = first.UnixNano()
	tr.DurationNS = last.Sub(first).Nanoseconds()
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	if t.filled < len(t.ring) {
		t.filled++
	}
}

// Traces returns the retained traces, newest first. Nil tracers return
// nil.
func (t *Tracer) Traces() []api.Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]api.Trace, 0, t.filled)
	for i := 0; i < t.filled; i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}

// TraceByID fetches one retained trace.
func (t *Tracer) TraceByID(id string) (api.Trace, bool) {
	if t == nil {
		return api.Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < t.filled; i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		if t.ring[idx].TraceID == id {
			return t.ring[idx], true
		}
	}
	return api.Trace{}, false
}

// ServeHTTP serves the retained traces — mount it at GET
// /debug/traces: the list, newest first, or the one trace ?id= names
// (404 not_found when none is retained). A nil tracer serves an empty
// list, so the endpoint's shape does not depend on configuration.
func (t *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		tr, ok := t.TraceByID(id)
		if !ok {
			api.WriteError(w, api.CodeNotFound, "trace not retained (dropped by tail sampling, evicted, or never seen)", TraceID(r.Context()))
			return
		}
		api.WriteJSON(w, http.StatusOK, tr)
		return
	}
	traces := t.Traces()
	if traces == nil {
		traces = []api.Trace{}
	}
	api.WriteJSON(w, http.StatusOK, api.TraceList{Traces: traces})
}

// PendingLen reports the pending-trace table size (tests and the soak
// report use it to spot leaks from roots that never end).
func (t *Tracer) PendingLen() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}
