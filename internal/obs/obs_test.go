package obs

import (
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter", "shard", "east")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.CounterValue("test_total", "shard", "east"); got != 5 {
		t.Fatalf("CounterValue = %d, want 5", got)
	}
	if got := r.CounterValue("test_total", "shard", "west"); got != 0 {
		t.Fatalf("CounterValue for absent labels = %d, want 0", got)
	}

	r.GaugeFunc("test_fn", "a computed gauge", func() float64 { return 1.5 })
	if got := r.GaugeValue("test_fn"); got != 1.5 {
		t.Fatalf("GaugeValue = %v, want 1.5", got)
	}
}

// TestNilCellsAreInert: the disabled-telemetry path — every recording
// method on nil cells and a nil registry is a safe no-op.
func TestNilCellsAreInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "nil registry returns nil cells")
	h := r.Histogram("x_seconds", "")
	c.Inc()
	c.Add(3)
	h.Observe(time.Millisecond)
	r.GaugeFunc("x_fn", "", func() float64 { return 1 })
	r.AttachCounter("x_attached", "", c)
	if c.Load() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 || r.GaugeValue("x_fn") != 0 {
		t.Fatal("nil cells recorded something")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency")
	// 100 observations at 2ms: every quantile lands in the (1ms, 2.5ms]
	// bucket.
	for i := 0; i < 100; i++ {
		h.Observe(2 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.SumSeconds(), 0.2; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := h.Quantile(q)
		if v <= 1e-3 || v > 2.5e-3 {
			t.Fatalf("Quantile(%v) = %v, want within (1ms, 2.5ms]", q, v)
		}
	}

	// A bimodal distribution: p50 in the low mode, p99 in the high mode.
	h2 := r.Histogram("lat2_seconds", "latency")
	for i := 0; i < 90; i++ {
		h2.Observe(20 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(2 * time.Second)
	}
	if p50 := h2.Quantile(0.5); p50 > 25e-6 {
		t.Fatalf("p50 = %v, want in the low mode", p50)
	}
	if p99 := h2.Quantile(0.99); p99 < 1 {
		t.Fatalf("p99 = %v, want in the high mode", p99)
	}

	// Overflow bucket observations clamp to the largest finite bound.
	h3 := r.Histogram("lat3_seconds", "latency")
	h3.Observe(time.Minute)
	if got := h3.Quantile(0.5); got != LatencyBuckets[len(LatencyBuckets)-1] {
		t.Fatalf("overflow quantile = %v", got)
	}

	// Negative durations clamp to zero instead of corrupting the sum.
	h4 := r.Histogram("lat4_seconds", "latency")
	h4.Observe(-time.Second)
	if h4.SumSeconds() != 0 || h4.Count() != 1 {
		t.Fatalf("negative observe: sum=%v count=%d", h4.SumSeconds(), h4.Count())
	}
}

// TestSnapshotMonotoneBuckets: cumulative bucket counts in a snapshot
// never decrease with increasing le, and count equals the +Inf bucket.
func TestSnapshotMonotoneBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mono_seconds", "latency")
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, 10 * time.Millisecond, time.Second, time.Hour} {
		h.Observe(d)
	}
	snap, ok := r.HistogramSnapshot("mono_seconds")
	if !ok {
		t.Fatal("histogram not found")
	}
	var cum, total uint64
	for _, c := range snap.Counts {
		total += c
	}
	if total != snap.Count || snap.Count != 5 {
		t.Fatalf("bucket total = %d, count = %d, want 5", total, snap.Count)
	}
	prev := uint64(0)
	for i, c := range snap.Counts {
		cum += c
		if cum < prev {
			t.Fatalf("cumulative count decreased at bucket %d", i)
		}
		prev = cum
	}
	if snap.P50 > snap.P95 || snap.P95 > snap.P99 {
		t.Fatalf("quantiles out of order: p50=%v p95=%v p99=%v", snap.P50, snap.P95, snap.P99)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("req_total", "requests", "shard", "east")
	c.Add(3)
	r.Counter("req_total", "requests", "shard", "west").Inc()
	r.GaugeFunc("depth", "queue \"depth\"\nwith newline", func() float64 { return 2 })
	h := r.Histogram("lat_seconds", "latency", "shard", "east", "stage", "detect")
	h.Observe(30 * time.Microsecond)
	h.Observe(30 * time.Microsecond)
	h.Observe(2 * time.Second)

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP req_total requests\n",
		"# TYPE req_total counter\n",
		`req_total{shard="east"} 3`,
		`req_total{shard="west"} 1`,
		"# TYPE depth gauge\n",
		"depth 2",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{shard="east",stage="detect",le="5e-05"} 2`,
		`lat_seconds_bucket{shard="east",stage="detect",le="+Inf"} 3`,
		`lat_seconds_count{shard="east",stage="detect"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	// Escaped HELP text survives.
	if !strings.Contains(body, `# HELP depth queue "depth"\nwith newline`) {
		t.Fatalf("HELP escaping wrong:\n%s", body)
	}
	// le buckets are cumulative and monotone in the rendered text too.
	var last int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not monotone at %q", line)
		}
		last = v
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("ok_total", "fine")
	mustPanic("duplicate registration", func() { r.Counter("ok_total", "fine") })
	mustPanic("kind mismatch", func() { r.GaugeFunc("ok_total", "fine", func() float64 { return 0 }) })
	mustPanic("camelCase name", func() { r.Counter("badName", "x") })
	mustPanic("empty name", func() { r.Counter("", "x") })
	mustPanic("odd labels", func() { r.Counter("odd_total", "x", "shard") })
	mustPanic("bad label key", func() { r.Counter("lbl_total", "x", "Shard", "east") })
	// Same name, new label values: allowed (extends the family).
	r.Counter("ok2_total", "fine", "shard", "a")
	r.Counter("ok2_total", "fine", "shard", "b")
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != "" {
		t.Fatal("empty context carries a trace ID")
	}
	ctx2 := WithTraceID(ctx, "abc123")
	if got := TraceID(ctx2); got != "abc123" {
		t.Fatalf("TraceID = %q", got)
	}
	if WithTraceID(ctx, "") != ctx {
		t.Fatal("empty id should not wrap the context")
	}

	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q is not 16 hex chars", id)
		}
		for _, c := range id {
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				t.Fatalf("trace id %q has non-hex char %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("trace id %q repeated", id)
		}
		seen[id] = true
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "INFO": "INFO", "Warn": "WARN", "error": "ERROR",
	} {
		l, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", in, err)
		}
		if l.String() != want {
			t.Fatalf("ParseLevel(%q) = %v", in, l)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("bad level accepted")
	}
}
