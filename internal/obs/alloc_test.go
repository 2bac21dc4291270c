package obs

import (
	"context"
	"testing"
	"time"
)

// TestHotPathAllocations pins the allocation budget of every obs
// primitive that sits on the serving hot path: recording into enabled
// cells and recording into disabled (nil) cells are both allocation-
// free, and trace-ID context reads allocate nothing. Only minting a new
// trace ID — once per request, at ingress — pays its single string
// allocation.
func TestHotPathAllocations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "x")
	h := r.Histogram("alloc_seconds", "x")
	var nilC *Counter
	var nilH *Histogram
	var nilT *Tracer
	var nilSpan *Span
	tr := NewTracer(TracerConfig{})
	now := time.Now()
	ctx := WithTraceID(context.Background(), "deadbeef00000000")

	cases := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"counter inc enabled", 0, func() { c.Inc() }},
		{"counter inc disabled", 0, func() { nilC.Inc() }},
		{"counter add enabled", 0, func() { c.Add(2) }},
		{"counter add disabled", 0, func() { nilC.Add(2) }},
		{"histogram observe enabled", 0, func() { h.Observe(123 * time.Microsecond) }},
		{"histogram observe disabled", 0, func() { nilH.Observe(123 * time.Microsecond) }},
		{"histogram observe value enabled", 0, func() { h.ObserveValue(0.5) }},
		{"histogram observe value disabled", 0, func() { nilH.ObserveValue(0.5) }},
		{"trace id read", 0, func() { _ = TraceID(ctx) }},
		{"trace id mint", 1, func() { _ = NewTraceID() }},
		{"span start disabled", 0, func() { _, sp := nilT.StartSpan(ctx, "stage"); sp.End() }},
		{"span end disabled", 0, func() { nilSpan.End() }},
		{"span attr disabled", 0, func() { nilSpan.SetAttr("k", "v") }},
		{"span error string disabled", 0, func() { nilSpan.SetErrorString("boom") }},
		{"record span disabled", 0, func() { nilT.RecordSpan(ctx, "stage", nilH, now, now) }},
		{"record span disabled observes", 0, func() { nilT.RecordSpan(ctx, "stage", h, now, now) }},
		{"record span untraced", 0, func() { tr.RecordSpan(context.Background(), "stage", h, now, now) }},
		{"span from context", 0, func() { _ = SpanFromContext(ctx) }},
		{"parent span id read", 0, func() { _ = ParentSpanID(ctx) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(200, tc.fn); got > tc.max {
				t.Fatalf("%s allocates %v per op, budget %v", tc.name, got, tc.max)
			}
		})
	}
}

// TestSampledOutTraceAllocations pins what a trace the tail sampler
// drops costs the tracer: once finalized entries are there to reuse,
// recording its spans and finalizing it allocate nothing beyond
// starting its spans. A pending entry that took a slice of MaxSpans
// spans up front, about 15 KB per trace, would fail it.
func TestSampledOutTraceAllocations(t *testing.T) {
	tr := NewTracer(TracerConfig{SlowThreshold: -1})
	now := time.Now()
	start := testing.AllocsPerRun(200, func() {
		ctx, root := tr.StartSpan(context.Background(), "root")
		_, child := tr.StartSpan(ctx, "child")
		_, _ = root, child
	})
	trace := testing.AllocsPerRun(200, func() {
		ctx, root := tr.StartSpan(context.Background(), "root")
		_, child := tr.StartSpan(ctx, "child")
		child.End()
		tr.RecordSpan(ctx, "stage", nil, now, now)
		root.End()
	})
	if trace > start {
		t.Errorf("a sampled-out trace allocates %v times, its span starts alone %v", trace, start)
	}
	if tr.PendingLen() != 0 || len(tr.Traces()) != 0 || tr.DroppedCounter().Load() == 0 {
		t.Errorf("%d pending, %d kept, %d dropped: want every trace dropped and none pending",
			tr.PendingLen(), len(tr.Traces()), tr.DroppedCounter().Load())
	}
}

// BenchmarkHistogramObserve is the histogram micro-benchmark `make
// bench` surfaces: one Observe is a bucket scan plus three atomic adds.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(250 * time.Microsecond)
	}
}

// BenchmarkHistogramObserveDisabled measures the disabled-telemetry
// path: a nil histogram is one branch.
func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(250 * time.Microsecond)
	}
}

// BenchmarkCounterInc measures the counter hot path.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkNewTraceID measures trace-ID minting (ingress only).
func BenchmarkNewTraceID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewTraceID()
	}
}
