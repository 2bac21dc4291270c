package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"pmuoutage/api"
	"pmuoutage/internal/obs"
)

// TestTraceIDOnErrorsAndMetrics: the middleware echoes a caller trace
// ID on error responses (header and JSON body), mints one when absent,
// and /metrics exposes the resulting HTTP counters.
func TestTraceIDOnErrorsAndMetrics(t *testing.T) {
	svc, ts := newTestServer(t)
	waitReady(t, svc, "east")

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", strings.NewReader(`{"shard":"nope","samples":[{}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "0123456789abcdef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "0123456789abcdef" {
		t.Fatalf("header echo = %q", got)
	}
	var e api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.TraceID != "0123456789abcdef" {
		t.Fatalf("error body trace_id = %q", e.TraceID)
	}

	// No caller ID: the daemon mints one.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp2.Body.Close()
	if id := resp2.Header.Get(obs.TraceHeader); len(id) != 16 {
		t.Fatalf("minted trace id %q is not 16 hex chars", id)
	}

	// The traffic above shows up in the metrics registry.
	reg := svc.Metrics()
	if reg.CounterValue("pmu_http_requests_total", "path", "/v1/detect") == 0 ||
		reg.CounterValue("pmu_http_errors_total", "path", "/v1/detect") == 0 {
		t.Fatal("HTTP counters did not record the failed detect")
	}
}
