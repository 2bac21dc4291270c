package api

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"pmuoutage"
)

// TestWireFieldNames pins the encoded JSON of every wire type: the
// field names are the client↔server contract, so a rename here must
// show up as a golden diff, never as a silent incompatibility.
func TestWireFieldNames(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want string
	}{
		{
			"DetectRequest",
			DetectRequest{Shard: "east", Samples: []pmuoutage.Sample{{Vm: []float64{1}, Va: []float64{0}}}},
			`{"shard":"east","samples":[{"vm":[1],"va":[0]}]}`,
		},
		{
			"DetectResponse",
			DetectResponse{Shard: "east", Reports: []*pmuoutage.Report{{Outage: true, DeviationEnergy: 2}}},
			`{"shard":"east","reports":[{"outage":true,"deviation_energy":2}]}`,
		},
		{
			"IngestRequest",
			IngestRequest{Shard: "east", Sample: pmuoutage.Sample{Vm: []float64{1}, Va: []float64{0}}},
			`{"shard":"east","sample":{"vm":[1],"va":[0]}}`,
		},
		{
			"IngestResponse",
			IngestResponse{Shard: "east"},
			`{"shard":"east","event":null}`,
		},
		{
			"ReloadRequest",
			ReloadRequest{Shard: "east", Fingerprint: "abc"},
			`{"shard":"east","fingerprint":"abc"}`,
		},
		{
			"ReloadResult",
			ReloadResult{Shard: "east", Generation: 3, Model: "abc"},
			`{"shard":"east","generation":3,"model":"abc"}`,
		},
		{
			"ErrorEnvelope",
			ErrorEnvelope{Code: CodeOverloaded, Error: "shed", Retryable: true, TraceID: "t1"},
			`{"code":"overloaded","error":"shed","retryable":true,"trace_id":"t1"}`,
		},
		{
			"ShardStatus",
			ShardStatus{Name: "east", Case: "ieee14", State: "ready", Restarts: 1, Generation: 3, Model: "abc"},
			`{"name":"east","case":"ieee14","state":"ready","restarts":1,"queue_depth":0,"generation":3,"model":"abc"}`,
		},
		{
			"ModelInfo",
			ModelInfo{Fingerprint: "abc", Case: "ieee14", FormatVersion: 1, Bytes: 42},
			`{"fingerprint":"abc","case":"ieee14","format_version":1,"bytes":42}`,
		},
		{
			"BackendStatus",
			BackendStatus{URL: "http://b1", Healthy: true, Ejections: 2, InFlight: 3, QueueDepth: 4, LastError: "probe", Shards: []ShardStatus{{Name: "east"}}},
			`{"url":"http://b1","healthy":true,"ejections":2,"in_flight":3,"queue_depth":4,"last_error":"probe","shards":[{"name":"east","case":"","state":"","restarts":0,"queue_depth":0,"generation":0}]}`,
		},
		{
			// The binary body's media type is wire contract too: the
			// server picks the frame decoder by it.
			"FrameContentType",
			FrameContentType,
			`"application/x-pmu-frame"`,
		},
	}
	for _, c := range cases {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Errorf("%s wire form drifted:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}

// TestShardSnapshotFields pins the stats payload's field set (values
// are uninteresting; the keys are the contract).
func TestShardSnapshotFields(t *testing.T) {
	b, err := json.Marshal(ShardSnapshot{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests", "ingests", "samples", "batches", "shed", "unavailable",
		"restarts", "reloads", "frames_json", "frames_binary",
		"max_batch", "avg_batch", "avg_latency_ms", "p50_latency_ms",
		"p95_latency_ms", "p99_latency_ms", "queue_depth",
	} {
		if !strings.Contains(string(b), `"`+key+`"`) {
			t.Errorf("ShardSnapshot lost wire field %q: %s", key, b)
		}
	}
}

// TestLegacyEnvelopeDecodes: pre-code servers answer envelopes without
// the code field; decoding must still succeed and fall back to status
// classification.
func TestLegacyEnvelopeDecodes(t *testing.T) {
	env, ok := DecodeError([]byte(`{"error":"shard training","retryable":true}`))
	if !ok {
		t.Fatal("legacy envelope did not decode")
	}
	if env.Code != "" || env.Error != "shard training" || !env.Retryable {
		t.Fatalf("legacy envelope = %+v", env)
	}
	if !RetryableResponse(http.StatusServiceUnavailable, []byte(`{"error":"x"}`)) {
		t.Error("codeless 503 must classify retryable by status")
	}
	if RetryableResponse(http.StatusServiceUnavailable, []byte(`{"code":"closed","error":"x"}`)) {
		t.Error("code closed must override the 503 status fallback")
	}
	if !RetryableResponse(http.StatusTooManyRequests, []byte("not json")) {
		t.Error("unparseable 429 body must classify retryable by status")
	}
}

// TestCodeStatusTable pins every code's canonical status and
// retryability.
func TestCodeStatusTable(t *testing.T) {
	cases := []struct {
		code   Code
		status int
		retry  bool
	}{
		{CodeBadRequest, 400, false},
		{CodeTooLarge, 413, false},
		{CodeBadSample, 400, false},
		{CodeBadLine, 400, false},
		{CodeUnknownCase, 400, false},
		{CodeBadModel, 400, false},
		{CodeModelVersion, 400, false},
		{CodeConfig, 400, false},
		{CodeUnknownShard, 404, false},
		{CodeUnknownModel, 404, false},
		{CodePromotionBlocked, 409, false},
		{CodeOverloaded, 429, true},
		{CodeUnavailable, 503, true},
		{CodeClosed, 503, false},
		{CodeDeadline, 504, false},
		{CodeInternal, 500, false},
		{Code(""), 500, false},
	}
	for _, c := range cases {
		if got := c.code.HTTPStatus(); got != c.status {
			t.Errorf("%q.HTTPStatus() = %d, want %d", c.code, got, c.status)
		}
		if got := c.code.Retryable(); got != c.retry {
			t.Errorf("%q.Retryable() = %v, want %v", c.code, got, c.retry)
		}
	}
}
