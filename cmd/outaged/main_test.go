package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/client"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/service"
)

// newTestServer builds a two-shard service behind httptest.
func newTestServer(t *testing.T) (*service.Service, *httptest.Server) {
	t.Helper()
	cfg, err := buildConfig("east=ieee14,west=ieee14", 12, 3, true, 2, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RestartBackoff = time.Millisecond
	svc, err := service.New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(httpserve.New(svc, 30*time.Second, nil).Routes())
	t.Cleanup(ts.Close)
	return svc, ts
}

// waitReady polls until the shard serves or the test deadline hits.
func waitReady(t *testing.T, svc *service.Service, name string) *pmuoutage.System {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if sys, err := svc.System(name); err == nil {
			return sys
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("shard %s never became ready", name)
	return nil
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDetectEndpointMatchesDirect: a served detect response is
// byte-identical (as JSON) to System.DetectBatch on the same samples.
func TestDetectEndpointMatchesDirect(t *testing.T) {
	svc, ts := newTestServer(t)
	sys := waitReady(t, svc, "east")
	line := sys.ValidLines()[0]
	samples, err := sys.SimulateOutage([]int{line}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.DetectBatch(samples)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := client.New(client.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Detect(context.Background(), "east", samples)
	if err != nil {
		t.Fatal(err)
	}
	if err := httpserve.CompareReports(got, want); err != nil {
		t.Fatal(err)
	}
	if !got[0].Outage {
		t.Fatal("served report missed the simulated outage")
	}
}

// TestErrorMapping pins the error taxonomy → HTTP status contract.
func TestErrorMapping(t *testing.T) {
	svc, ts := newTestServer(t)
	sys := waitReady(t, svc, "east")
	waitReady(t, svc, "west")
	good, err := sys.SimulateOutage([]int{sys.ValidLines()[0]}, 1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("unknown shard 404", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/detect", api.DetectRequest{Shard: "nope", Samples: good})
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var e api.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.Retryable || !strings.Contains(e.Error, "unknown shard") {
			t.Fatalf("error body = %+v", e)
		}
	})
	t.Run("bad sample 400", func(t *testing.T) {
		bad := []pmuoutage.Sample{{Vm: []float64{1}, Va: []float64{0}}}
		resp := postJSON(t, ts.URL+"/v1/detect", api.DetectRequest{Shard: "east", Samples: bad})
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})
	t.Run("malformed body 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})
	t.Run("killed shard 503 with Retry-After, sibling keeps serving", func(t *testing.T) {
		if err := svc.Kill("west"); err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/detect", api.DetectRequest{Shard: "west", Samples: good})
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("killed shard status = %d", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("retryable 503 without Retry-After header")
		}
		var e api.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if !e.Retryable {
			t.Fatalf("error body = %+v", e)
		}
		resp2 := postJSON(t, ts.URL+"/v1/detect", api.DetectRequest{Shard: "east", Samples: good})
		defer func() { _ = resp2.Body.Close() }()
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("surviving shard status = %d", resp2.StatusCode)
		}
	})
}

// TestIngestShardsStatsHealth covers the remaining endpoints.
func TestIngestShardsStatsHealth(t *testing.T) {
	svc, ts := newTestServer(t)
	sys := waitReady(t, svc, "east")
	waitReady(t, svc, "west")
	samples, err := sys.SimulateOutage([]int{sys.ValidLines()[0]}, 3)
	if err != nil {
		t.Fatal(err)
	}

	var confirmed *pmuoutage.Event
	for _, smp := range samples {
		resp := postJSON(t, ts.URL+"/v1/ingest", api.IngestRequest{Shard: "east", Sample: smp})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status = %d", resp.StatusCode)
		}
		var out api.IngestResponse
		err := json.NewDecoder(resp.Body).Decode(&out)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if out.Event != nil {
			confirmed = out.Event
			break
		}
	}
	if confirmed == nil {
		t.Fatal("persistent outage never confirmed over /v1/ingest")
	}

	resp, err := http.Get(ts.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	var shards []api.ShardStatus
	err = json.NewDecoder(resp.Body).Decode(&shards)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || shards[0].Name != "east" || shards[0].State != "ready" {
		t.Fatalf("shards = %+v", shards)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]api.ShardSnapshot
	err = json.NewDecoder(resp.Body).Decode(&stats)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats["east"].Ingests == 0 {
		t.Fatalf("stats = %+v", stats)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestReloadEndpoint exercises POST /v1/reload over real HTTP: load an
// artifact written by the facade codec from disk, swap a serving shard
// onto it, and verify the daemon then answers with exactly that model's
// reports. Error paths (missing file, unknown shard) map to 400/404.
func TestReloadEndpoint(t *testing.T) {
	svc, ts := newTestServer(t)
	waitReady(t, svc, "east")
	cl, err := client.New(client.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}

	// Train a different-seed model and save it the way outagetrain does.
	m, err := pmuoutage.TrainModel(pmuoutage.Options{Case: "ieee14", TrainSteps: 12, Seed: 42, UseDC: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "east.model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := cl.Reload(context.Background(), "east", path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != m.Fingerprint() {
		t.Fatalf("reload serves %s, want %s", res.Model, m.Fingerprint())
	}
	if res.Generation < 2 {
		t.Fatalf("generation = %d after reload", res.Generation)
	}

	ref, err := pmuoutage.NewSystemFromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ref.SimulateOutage([]int{ref.ValidLines()[0]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.DetectBatch(samples)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Detect(context.Background(), "east", samples)
	if err != nil {
		t.Fatal(err)
	}
	if err := httpserve.CompareReports(got, want); err != nil {
		t.Fatal(err)
	}

	t.Run("missing artifact 400", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/reload", api.ReloadRequest{Shard: "east", Path: filepath.Join(t.TempDir(), "nope.json")})
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})
	t.Run("corrupt artifact 400", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(bad, []byte("not a model"), 0o600); err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/reload", api.ReloadRequest{Shard: "east", Path: bad})
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})
	t.Run("unknown shard 404", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/reload", api.ReloadRequest{Shard: "nope"})
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})
}

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig("east=ieee14, west=ieee30 ,bare", 20, 5, true, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Shards) != 3 {
		t.Fatalf("shards = %+v", cfg.Shards)
	}
	if cfg.Shards[1].Name != "west" || cfg.Shards[1].Opts.Case != "ieee30" {
		t.Fatalf("shard 1 = %+v", cfg.Shards[1])
	}
	if cfg.Shards[2].Name != "bare" || cfg.Shards[2].Opts.Case != "" {
		t.Fatalf("bare shard = %+v", cfg.Shards[2])
	}
	if cfg.Shards[0].Opts.Seed != 5 || cfg.Shards[1].Opts.Seed != 6 {
		t.Fatal("per-shard seed offset not applied")
	}
	if _, err := buildConfig(" , ", 0, 1, false, 0, 0, 0, 0); err == nil {
		t.Fatal("empty shard list accepted")
	}
}
