package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/internal/obs"
)

// TestStatsMetricsParity pins the one-source-of-truth satellite: after a
// traffic burst, every field of the JSON /v1/stats snapshot equals the
// corresponding series on the Prometheus registry — they are two views
// of the same atomic cells, so they can never drift.
func TestStatsMetricsParity(t *testing.T) {
	svc, err := New(context.Background(), Config{
		Shards:            []ShardSpec{{Name: "east", Opts: quickOpts(3)}},
		RestartBackoff:    time.Millisecond,
		MaxRestartBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitState(t, svc, "east", "ready")

	sys := mustSystem(t, svc, "east")
	samples := testSamples(t, sys, 3)
	for i := 0; i < 7; i++ {
		if _, err := svc.DetectBatch(context.Background(), "east", samples); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := svc.Ingest(context.Background(), "east", samples[0]); err != nil {
			t.Fatal(err)
		}
	}
	// The admission counters the HTTP layer bumps for its json and
	// binary bodies.
	svc.Counters("east").Frames(IngestJSON).Add(2)
	svc.Counters("east").Frames(IngestBinary).Inc()

	snap := svc.Stats()["east"]
	reg := svc.Metrics()
	for _, tc := range []struct {
		metric string
		want   uint64
	}{
		{"pmu_requests_total", snap.Requests},
		{"pmu_ingests_total", snap.Ingests},
		{"pmu_samples_total", snap.Samples},
		{"pmu_batches_total", snap.Batches},
		{"pmu_shed_total", snap.Shed},
		{"pmu_unavailable_total", snap.Unavailable},
		{"pmu_restarts_total", snap.Restarts},
		{"pmu_reloads_total", snap.Reloads},
	} {
		if got := reg.CounterValue(tc.metric, "shard", "east"); got != tc.want {
			t.Errorf("%s = %d, registry says %d", tc.metric, tc.want, got)
		}
	}
	for _, tc := range []struct {
		mode string
		want uint64
	}{
		{"json", snap.FramesJSON},
		{"binary", snap.FramesBinary},
	} {
		if got := reg.CounterValue("pmu_ingest_frames_total", "shard", "east", "mode", tc.mode); got != tc.want {
			t.Errorf("pmu_ingest_frames_total{mode=%q} = %d, registry says %d", tc.mode, tc.want, got)
		}
	}
	if snap.Requests != 7 || snap.Ingests != 4 || snap.Samples != 21 {
		t.Fatalf("unexpected traffic totals: %+v", snap)
	}
	if snap.FramesJSON != 2 || snap.FramesBinary != 1 {
		t.Fatalf("unexpected per-mode admissions: %+v", snap)
	}
	det, ok := reg.HistogramSnapshot("pmu_stage_seconds", "shard", "east", "stage", "detect")
	if !ok {
		t.Fatal("detect-stage histogram not registered")
	}
	if det.Count != snap.Batches {
		t.Fatalf("detect histogram count %d != batches %d", det.Count, snap.Batches)
	}
	if snap.AvgLatencyMS <= 0 || snap.P50LatencyMS <= 0 || snap.P99LatencyMS < snap.P50LatencyMS {
		t.Fatalf("latency fields not derived from the histogram: %+v", snap)
	}
	queue, ok := reg.HistogramSnapshot("pmu_stage_seconds", "shard", "east", "stage", "queue")
	if !ok || queue.Count != snap.Requests {
		t.Fatalf("queue-stage histogram count = %d (found=%v), want %d", queue.Count, ok, snap.Requests)
	}
	if got := reg.GaugeValue("pmu_queue_depth", "shard", "east"); got != float64(snap.QueueDepth) {
		t.Fatalf("queue depth gauge = %v, stats say %d", got, snap.QueueDepth)
	}

	// The same cells render on the exposition text.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`pmu_requests_total{shard="east"} 7`,
		`pmu_ingests_total{shard="east"} 4`,
		`pmu_samples_total{shard="east"} 21`,
		`pmu_ingest_frames_total{shard="east",mode="json"} 2`,
		`pmu_ingest_frames_total{shard="east",mode="binary"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestTelemetryEquivalence pins the instrumentation-is-observational
// guarantee: two services booted from the same model artifact — one
// silent, one with debug logging and a tracer — produce byte-identical
// detection responses, and the traced request's retained trace holds
// its queue, coalesce and detect stage spans under the root span.
func TestTelemetryEquivalence(t *testing.T) {
	m, err := pmuoutage.TrainModel(quickOpts(11))
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	newSvc := func(lg *slog.Logger, tr *obs.Tracer) *Service {
		svc, err := New(context.Background(), Config{
			Shards:            []ShardSpec{{Name: "east", Opts: quickOpts(11), Model: m}},
			RestartBackoff:    time.Millisecond,
			MaxRestartBackoff: 10 * time.Millisecond,
			Logger:            lg,
			Tracer:            tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, svc, "east", "ready")
		return svc
	}
	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	plain := newSvc(nil, nil)
	defer plain.Close()
	traced := newSvc(obs.NewTextLogger(&logBuf, slog.LevelDebug), tracer)
	defer traced.Close()

	ref, err := pmuoutage.NewSystemFromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	samples := testSamples(t, ref, 4)
	const traceID = "feedface12345678"
	ctx, root := tracer.StartSpan(obs.WithTraceID(context.Background(), traceID), "http")
	rootID := root.ID()

	a, err := plain.DetectBatch(context.Background(), "east", samples)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.DetectBatch(ctx, "east", samples)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("telemetry changed detector output:\nsilent: %s\ntraced: %s", aj, bj)
	}

	// The traced request's retained trace carries one span per shard
	// stage, each a child of the root.
	trace, ok := tracer.TraceByID(traceID)
	if !ok {
		t.Fatalf("trace %s not retained", traceID)
	}
	stages := map[string]int{}
	for _, sp := range trace.Spans {
		if sp.Root {
			continue
		}
		stages[sp.Stage]++
		if sp.Parent != rootID {
			t.Errorf("%s span parent = %q, want root %q", sp.Stage, sp.Parent, rootID)
		}
	}
	for _, stage := range []string{stageNameQueue, stageNameCoalesce, stageNameDetect} {
		if stages[stage] != 1 {
			t.Fatalf("trace has %d %s spans, want 1: %+v", stages[stage], stage, trace.Spans)
		}
	}
	// Lifecycle lines carry the shard's logger attributes.
	logs := logBuf.String()
	if !strings.Contains(logs, "shard=east") || !strings.Contains(logs, "component=service") {
		t.Fatalf("shard log missing fields:\n%s", logs)
	}
}

// TestInstrumentationAllocs pins the hot-path overhead of the shard's
// telemetry: with tracing off, recording a batch — counters, the detect
// histogram, and the coalesce and queue histograms through RecordSpan —
// allocates nothing, for traced contexts and with debug logging on.
func TestInstrumentationAllocs(t *testing.T) {
	svc := &Service{cfg: Config{Logger: obs.NewTextLogger(io.Discard, slog.LevelDebug)}.withDefaults(), stats: newStats(obs.NewRegistry())}
	sh := newShard(svc, ShardSpec{Name: "alloc"})
	ctx := obs.WithTraceID(context.Background(), "deadbeef00000000")
	live := []*request{
		{ctx: ctx, samples: make([]pmuoutage.Sample, 2), enqueued: time.Now()},
		{ctx: ctx, samples: make([]pmuoutage.Sample, 1), enqueued: time.Now()},
	}
	popped := time.Now()
	const runs = 200
	if got := testing.AllocsPerRun(runs, func() {
		svc.cfg.Tracer.RecordSpan(ctx, stageNameCoalesce, sh.st.stage[StageCoalesce], popped, popped)
		sh.observeBatch(live, 3, popped, popped, popped.Add(time.Millisecond))
	}); got > 0 {
		t.Fatalf("untraced batch instrumentation allocates %v per op, want 0", got)
	}
	// AllocsPerRun makes one warm-up call on top of runs; queue counts
	// requests, coalesce and detect count batches.
	for st, want := range map[Stage]uint64{StageQueue: 2 * (runs + 1), StageCoalesce: runs + 1, StageDetect: runs + 1} {
		if n := sh.st.stage[st].Count(); n != want {
			t.Errorf("%s histogram count = %d, want %d", st, n, want)
		}
	}
}
