package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"pmuoutage/api"
)

func runRow(t *testing.T, name string) {
	t.Helper()
	rows, err := Select(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	if err := rows[0].Run(ctx, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestServeSmoke runs the serve row end to end: real listener, real
// HTTP round trips, graceful shutdown.
func TestServeSmoke(t *testing.T) { runRow(t, "serve") }

// TestFleetSmoke runs the fleet row: registry, router, canary, a kill
// mid-stream and gated promotion.
func TestFleetSmoke(t *testing.T) { runRow(t, "fleet") }

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != 4 {
		t.Fatalf("Select(all) = %d rows, %v", len(all), err)
	}
	if _, err := Select("nope"); err == nil {
		t.Fatalf("Select(nope) error = %v", err)
	}
}

// passingSoak is a report that clears every gate.
func passingSoak() *soakReport {
	stages := map[string]stageRow{"detect": {Count: 1}}
	return &soakReport{
		Events: []soakEvent{{Kind: "reload"}, {Kind: "kill"}},
		Series: []tickRow{{Stages: stages}, {}, {}},
		Totals: counts{
			OutageRequests: 10, CorrectIsolations: 10, NormalRequests: 10,
			IsolationAccuracy: 1, IngestFrames: 5,
		},
		MultiHopTrace: &api.Trace{TraceID: "0123456789abcdef"},
	}
}

// TestCheckSoak: the gate passes a clean report and names the first
// broken promise of each failing one.
func TestCheckSoak(t *testing.T) {
	if err := checkSoak(passingSoak()); err != nil {
		t.Fatalf("clean report failed the gate: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*soakReport)
		want   string
	}{
		{"no kill event", func(r *soakReport) { r.Events = r.Events[:1] }, "kill"},
		{"failed kill event", func(r *soakReport) { r.Events[1].Err = "refused" }, "kill"},
		{"isolation accuracy 0.89", func(r *soakReport) { r.Totals.IsolationAccuracy = 0.89 }, "isolation accuracy 0.890"},
		{"one error", func(r *soakReport) { r.Totals.Errors = 1 }, "1 detect/ingest errors"},
		{"no multi-hop trace", func(r *soakReport) { r.MultiHopTrace = nil }, "multi-hop"},
		{"two ticks", func(r *soakReport) { r.Series = r.Series[:2] }, "ticks"},
		{"no normal arm", func(r *soakReport) { r.Totals.NormalRequests = 0 }, "arm"},
		{"no frames", func(r *soakReport) { r.Totals.IngestFrames = 0 }, "ingest frames"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep := passingSoak()
			c.mutate(rep)
			err := checkSoak(rep)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("gate error = %v, want one naming %q", err, c.want)
			}
		})
	}
}

// TestCheckMetrics: the /metrics gate accepts the serve row's traffic
// and rejects missing counters and decreasing buckets.
func TestCheckMetrics(t *testing.T) {
	const counters = `pmu_requests_total{shard="smoke"} 2
pmu_batches_total{shard="smoke"} 2
pmu_samples_total{shard="smoke"} 4
pmu_reloads_total{shard="smoke"} 1
pmu_ingest_frames_total{shard="smoke",mode="binary"} 1
pmu_http_requests_total{path="/v1/detect"} 2
pmu_http_requests_total{path="/v1/ingest"} 1
`
	const buckets = `pmu_stage_seconds_bucket{shard="smoke",stage="detect",le="0.001"} 1
pmu_stage_seconds_bucket{shard="smoke",stage="detect",le="0.01"} 3
pmu_stage_seconds_bucket{shard="smoke",stage="detect",le="+Inf"} 3
`
	for _, c := range []struct {
		name, body, want string
	}{
		{"good", counters + buckets, ""},
		{"decreasing buckets", counters + strings.Replace(buckets, `"+Inf"} 3`, `"+Inf"} 2`, 1), "decreased"},
		{"zero reloads", strings.Replace(counters, "pmu_reloads_total{shard=\"smoke\"} 1", "pmu_reloads_total{shard=\"smoke\"} 0", 1) + buckets, "want at least 1"},
		{"missing series", strings.Replace(counters, "pmu_batches_total", "pmu_other_total", 1) + buckets, "lacks series"},
		{"no buckets", counters, "no stage histogram"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkMetrics(c.body)
			if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("checkMetrics error = %v, want %q", err, c.want)
			}
		})
	}
}
