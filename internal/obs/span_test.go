package obs

import (
	"context"
	"errors"
	"testing"
	"time"

	"pmuoutage/api"
)

func TestTraceParentRoundTrip(t *testing.T) {
	id := NewTraceID()
	const parent = uint64(0xdeadbeef01020304)
	h := FormatTraceParent(id, parent)
	if len(h) != 39 {
		t.Fatalf("header length %d, want 39: %q", len(h), h)
	}
	if h != "00-"+id+"-deadbeef01020304-01" {
		t.Fatalf("header %q, want the documented 00-<trace>-<span>-01 layout", h)
	}
	gotID, gotParent, ok := ParseTraceParent(h)
	if !ok || gotID != id || gotParent != parent {
		t.Fatalf("round trip: got (%q, %x, %v), want (%q, %x, true)", gotID, gotParent, ok, id, parent)
	}

	for _, bad := range []string{
		"",
		"00-short-00-01",
		"01-aaaaaaaaaaaaaaaa-bbbbbbbbbbbbbbbb-01", // wrong version
		"00-AAAAAAAAAAAAAAAA-bbbbbbbbbbbbbbbb-01", // uppercase hex
		"00-aaaaaaaaaaaaaaaa-bbbbbbbbbbbbbbbg-01", // non-hex span
		"00-aaaaaaaaaaaaaaaa bbbbbbbbbbbbbbbb-01", // missing dash
	} {
		if _, _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted malformed header", bad)
		}
	}
}

// FuzzTraceParent: ParseTraceParent never panics and accepts only the
// headers FormatTraceParent renders (up to the flags byte); every
// well-formed trace ID round-trips with its span, and any other ID
// renders no header at all.
func FuzzTraceParent(f *testing.F) {
	f.Add("00-aaaaaaaaaaaaaaaa bbbbbbbbbbbbbbbb-01", uint64(1), uint64(2)) // missing dash
	f.Add("abc", uint64(0), uint64(0))
	f.Add("0123456789abcdef0123", uint64(0xdeadbeef), uint64(7))
	f.Add("00-0123456789abcdef-00000000000000ff-01", uint64(42), uint64(0))
	f.Fuzz(func(t *testing.T, s string, id, span uint64) {
		if tid, parent, ok := ParseTraceParent(s); ok {
			if h := FormatTraceParent(tid, parent); h[:37] != s[:37] {
				t.Fatalf("ParseTraceParent(%q) accepted a header FormatTraceParent renders as %q", s, h)
			}
		}
		h := FormatTraceParent(s, span)
		if _, ok := parseID(s); !ok {
			if h != "" {
				t.Fatalf("FormatTraceParent(%q) = %q, want no header for a malformed ID", s, h)
			}
		} else if tid, parent, ok := ParseTraceParent(h); !ok || tid != s || parent != span {
			t.Fatalf("round trip of %q: got (%q, %x, %v)", s, tid, parent, ok)
		}
		tid := formatID(id)
		if got, parent, ok := ParseTraceParent(FormatTraceParent(tid, span)); !ok || got != tid || parent != span {
			t.Fatalf("round trip of %q/%x: got (%q, %x, %v)", tid, span, got, parent, ok)
		}
	})
}

func TestParentSpanIDPrecedence(t *testing.T) {
	ctx := context.Background()
	if got := ParentSpanID(ctx); got != 0 {
		t.Fatalf("empty ctx parent = %x, want 0", got)
	}
	ctx = WithRemoteParent(ctx, 42)
	if got := ParentSpanID(ctx); got != 42 {
		t.Fatalf("remote parent = %x, want 42", got)
	}
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	ctx, sp := tr.StartSpan(ctx, "root")
	if !sp.root {
		t.Fatal("first local span should be root even with a remote parent")
	}
	if sp.parent != 42 {
		t.Fatalf("root parent = %x, want remote 42", sp.parent)
	}
	// An active local span wins over the remote parent.
	if got := ParentSpanID(ctx); got != sp.id {
		t.Fatalf("ctx parent = %x, want active span %x", got, sp.id)
	}
}

// drive runs one trace through tr: a root span with one child via
// StartSpan and one child via RecordSpan, returning the trace ID.
func drive(tr *Tracer, rootDur time.Duration, spanErr error) string {
	ctx, root := tr.StartSpan(context.Background(), "http")
	cctx, child := tr.StartSpan(ctx, "proxy")
	child.SetAttr("backend", "http://b1")
	child.SetError(spanErr)
	child.End()
	now := time.Now()
	tr.RecordSpan(cctx, "detect", nil, now.Add(-time.Millisecond), now)
	if rootDur > 0 {
		root.start = root.start.Add(-rootDur) // age the root instead of sleeping
	}
	id := TraceID(ctx)
	root.End()
	return id
}

// TestRecordSpanObservesHistogram: RecordSpan observes its stage
// histogram whether or not it files a span — on a nil tracer, on an
// untraced context, and under a traced one, where the span also lands.
func TestRecordSpanObservesHistogram(t *testing.T) {
	h := NewRegistry().Histogram("stage_seconds", "x")
	start := time.Now()
	end := start.Add(2 * time.Millisecond)
	var off *Tracer
	off.RecordSpan(WithTraceID(context.Background(), NewTraceID()), "detect", h, start, end)
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	tr.RecordSpan(context.Background(), "detect", h, start, end)
	ctx, root := tr.StartSpan(context.Background(), "http")
	tr.RecordSpan(ctx, "detect", h, start, end)
	root.End()
	if n := h.Count(); n != 3 {
		t.Fatalf("histogram count = %d, want 3 (one per RecordSpan)", n)
	}
	got, ok := tr.TraceByID(TraceID(ctx))
	if !ok || len(got.Spans) != 2 {
		t.Fatalf("traced RecordSpan: kept=%v spans=%d, want the root and one detect span", ok, len(got.Spans))
	}
}

func TestTailSamplingKeepRules(t *testing.T) {
	// Slow rule: a root over threshold is kept, a fast one dropped.
	tr := NewTracer(TracerConfig{SlowThreshold: 50 * time.Millisecond})
	fast := drive(tr, 0, nil)
	slow := drive(tr, 80*time.Millisecond, nil)
	if _, ok := tr.TraceByID(fast); ok {
		t.Fatal("fast, clean trace should be dropped")
	}
	got, ok := tr.TraceByID(slow)
	if !ok {
		t.Fatal("slow trace should be kept")
	}
	if got.Kept != api.TraceKeptSlow {
		t.Fatalf("kept reason = %q, want %q", got.Kept, api.TraceKeptSlow)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(got.Spans))
	}

	// Error rule beats everything.
	errID := drive(tr, 80*time.Millisecond, errors.New("boom"))
	got, ok = tr.TraceByID(errID)
	if !ok || got.Kept != api.TraceKeptError {
		t.Fatalf("erroneous trace: kept=%v reason=%q, want error", ok, got.Kept)
	}

	// Random sampling keeps fast, clean traces at the configured rate.
	sampled := NewTracer(TracerConfig{SlowThreshold: -1, SampleEvery: 2})
	var kept int
	for i := 0; i < 10; i++ {
		id := drive(sampled, 0, nil)
		if _, ok := sampled.TraceByID(id); ok {
			kept++
		}
	}
	if kept != 5 {
		t.Fatalf("SampleEvery=2 kept %d of 10, want 5", kept)
	}
	if sampled.KeptCounter().Load() != 5 || sampled.DroppedCounter().Load() != 5 {
		t.Fatalf("counters kept=%d dropped=%d, want 5/5",
			sampled.KeptCounter().Load(), sampled.DroppedCounter().Load())
	}

	// Nothing left pending once roots end.
	if n := tr.PendingLen(); n != 0 {
		t.Fatalf("pending table leaked %d traces", n)
	}
}

func TestTraceStructure(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	id := drive(tr, 0, nil)
	got, ok := tr.TraceByID(id)
	if !ok {
		t.Fatal("SampleEvery=1 must keep every trace")
	}
	if got.TraceID != id {
		t.Fatalf("trace id %q, want %q", got.TraceID, id)
	}
	byStage := map[string]api.TraceSpan{}
	for _, s := range got.Spans {
		byStage[s.Stage] = s
	}
	root := byStage["http"]
	if !root.Root {
		t.Fatal("http span should be marked root")
	}
	proxy := byStage["proxy"]
	if proxy.Parent != root.ID {
		t.Fatalf("proxy parent = %q, want root %q", proxy.Parent, root.ID)
	}
	if proxy.Attrs["backend"] != "http://b1" {
		t.Fatalf("proxy attrs = %v", proxy.Attrs)
	}
	detect := byStage["detect"]
	if detect.Parent != proxy.ID {
		t.Fatalf("detect parent = %q, want proxy %q (RecordSpan under the proxy ctx)", detect.Parent, proxy.ID)
	}
	if detect.DurationNS <= 0 || got.DurationNS <= 0 {
		t.Fatalf("durations must be positive: span=%d trace=%d", detect.DurationNS, got.DurationNS)
	}
}

func TestTraceRingEviction(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 3, SampleEvery: 1})
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, drive(tr, 0, nil))
	}
	traces := tr.Traces()
	if len(traces) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(traces))
	}
	// Newest first, oldest evicted.
	if traces[0].TraceID != ids[4] || traces[2].TraceID != ids[2] {
		t.Fatalf("ring order wrong: got %q..%q, want %q..%q",
			traces[0].TraceID, traces[2].TraceID, ids[4], ids[2])
	}
	if _, ok := tr.TraceByID(ids[0]); ok {
		t.Fatal("oldest trace should have been evicted")
	}
}

func TestSpanCapAndPendingBound(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxSpans: 2, SampleEvery: 1})
	ctx, root := tr.StartSpan(context.Background(), "http")
	for i := 0; i < 4; i++ {
		now := time.Now()
		tr.RecordSpan(ctx, "detect", nil, now, now)
	}
	id := TraceID(ctx)
	root.End()
	got, ok := tr.TraceByID(id)
	if !ok {
		t.Fatal("trace should be kept")
	}
	if len(got.Spans) != 2 || got.DroppedSpans != 3 {
		t.Fatalf("spans=%d dropped=%d, want 2 retained, 3 dropped", len(got.Spans), got.DroppedSpans)
	}
	// The next trace reuses the finalized entry, which must start empty.
	ctx, root = tr.StartSpan(context.Background(), "http")
	t0 := time.Now()
	tr.RecordSpan(ctx, "detect", nil, t0, t0)
	root.End()
	got, ok = tr.TraceByID(TraceID(ctx))
	if !ok || len(got.Spans) != 2 || got.DroppedSpans != 0 {
		t.Fatalf("reused entry: kept=%v spans=%d dropped=%d, want kept, 2 retained, none dropped",
			ok, len(got.Spans), got.DroppedSpans)
	}

	// Pending bound: span floods for absent roots are shed, but a root
	// arriving while the table is full still finalizes.
	small := NewTracer(TracerConfig{MaxPending: 1, SampleEvery: 1})
	orphanCtx := WithTraceID(context.Background(), NewTraceID())
	now := time.Now()
	small.RecordSpan(orphanCtx, "detect", nil, now, now) // root never arrives: occupies the slot
	ctx2 := WithTraceID(context.Background(), NewTraceID())
	small.RecordSpan(ctx2, "detect", nil, now, now) // shed: table full
	_, lateRoot := small.StartSpan(ctx2, "http")
	lateRoot.End()
	got, ok = small.TraceByID(TraceID(ctx2))
	if !ok {
		t.Fatal("root arriving over a full pending table must still finalize")
	}
	if len(got.Spans) != 1 {
		t.Fatalf("late root retained %d spans, want just itself (child was shed)", len(got.Spans))
	}
	if small.PendingLen() != 1 {
		t.Fatalf("pending = %d, want the original orphan only", small.PendingLen())
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	ctx, root := tr.StartSpan(context.Background(), "http")
	id := TraceID(ctx)
	root.End()
	root.End()
	got, ok := tr.TraceByID(id)
	if !ok || len(got.Spans) != 1 {
		t.Fatalf("double End produced kept=%v spans=%d, want one span once", ok, len(got.Spans))
	}
}
