package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/obs"
)

// stubBackend mimics outaged's HTTP surface with a canned detect
// answer, so router behavior is tested without training models.
type stubBackend struct {
	ts      *httptest.Server
	detects atomic.Uint64
	reply   func() (int, []byte) // nil: the default healthy answer

	mu          sync.Mutex
	reloads     []api.ReloadRequest // every /v1/reload body, in order
	traceparent string              // Traceparent header of the last detect
	traceID     string              // trace ID the last detect is filed under
}

// reloadLog snapshots the reload requests the backend has served.
func (b *stubBackend) reloadLog() []api.ReloadRequest {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]api.ReloadRequest(nil), b.reloads...)
}

// stubReports is the canned detect payload every healthy stub serves.
func stubReports(energy float64) []byte {
	body, err := json.Marshal(api.DetectResponse{
		Shard: "east",
		Reports: []*pmuoutage.Report{{
			Outage:          true,
			Lines:           []pmuoutage.Line{{Index: 3, FromBus: 1, ToBus: 4}},
			DeviationEnergy: energy,
		}},
	})
	if err != nil {
		panic(err)
	}
	return body
}

func newStubBackend(t *testing.T, reply func() (int, []byte)) *stubBackend {
	t.Helper()
	b := &stubBackend{reply: reply}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode([]api.ShardStatus{{Name: "east", State: "ready", QueueDepth: 0}})
	})
	mux.HandleFunc("POST /v1/detect", func(w http.ResponseWriter, r *http.Request) {
		b.detects.Add(1)
		b.mu.Lock()
		b.traceparent = r.Header.Get(obs.TraceParentHeader)
		// A real backend files the request under Traceparent's ID when
		// it parses, else under X-Trace-Id.
		b.traceID = r.Header.Get(obs.TraceHeader)
		if id, _, ok := obs.ParseTraceParent(b.traceparent); ok {
			b.traceID = id
		}
		b.mu.Unlock()
		status, body := http.StatusOK, stubReports(1.5)
		if b.reply != nil {
			status, body = b.reply()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(body)
	})
	mux.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, r *http.Request) {
		var rr api.ReloadRequest
		if err := json.NewDecoder(r.Body).Decode(&rr); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		b.mu.Lock()
		b.reloads = append(b.reloads, rr)
		b.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.ReloadResult{Shard: rr.Shard, Generation: 2, Model: rr.Fingerprint})
	})
	mux.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{
			"query": r.URL.RawQuery,
			"ct":    r.Header.Get("Content-Type"),
			"len":   string(rune('0' + len(body)%10)),
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		n := b.detects.Load()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]api.ShardSnapshot{"east": {
			Requests: n,
			Samples:  n,
			Stages: map[string]api.Hist{"detect": {
				Bounds: []float64{0.001, 0.01},
				Counts: []uint64{n, n},
				Count:  n,
				Sum:    float64(n) * 0.0005,
			}},
		}})
	})
	// The backend's half of a distributed trace: one root span whose
	// parent is whatever span ID the router's Traceparent named on the
	// last detect — the shape a real outaged process retains.
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		tp := b.traceparent
		b.mu.Unlock()
		tid, parent, ok := obs.ParseTraceParent(tp)
		if id := r.URL.Query().Get("id"); !ok || id != tid {
			w.WriteHeader(http.StatusNotFound)
			_, _ = w.Write([]byte(`{"code":"not_found","error":"trace not retained"}`))
			return
		}
		now := time.Now().UnixNano()
		_ = json.NewEncoder(w).Encode(api.Trace{
			TraceID: tid,
			Kept:    api.TraceKeptSampled,
			Spans: []api.TraceSpan{{
				ID:          "feedfacefeedface",
				Parent:      fmt.Sprintf("%016x", parent),
				Root:        true,
				Stage:       "http",
				StartUnixNS: now,
				DurationNS:  1000,
			}},
		})
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	return b
}

func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = 10 * time.Millisecond
	}
	rt, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Routes())
	t.Cleanup(ts.Close)
	return rt, ts
}

func postDetect(t *testing.T, base string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/detect",
		strings.NewReader(`{"shard":"east","samples":[{"vm":[1],"va":[0]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestFailoverMidStream is the acceptance case: a fleet of two
// backends, one killed while detect traffic is in flight, and not one
// request is dropped — the router retries transport failures on the
// surviving backend.
func TestFailoverMidStream(t *testing.T) {
	b1 := newStubBackend(t, nil)
	b2 := newStubBackend(t, nil)
	_, ts := newTestRouter(t, Config{Backends: []string{b1.ts.URL, b2.ts.URL}})

	want := stubReports(1.5)
	wantLF := append(append([]byte(nil), want...), '\n')
	var wg sync.WaitGroup
	var failed atomic.Uint64
	start := make(chan struct{})
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, body := postDetect(t, ts.URL, nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, wantLF) && !bytes.Equal(body, want) {
				failed.Add(1)
			}
		}()
	}
	close(start)
	// Kill b1 abruptly while requests are in flight: open connections are
	// dropped, which the router must absorb as fail-over, not errors.
	b1.ts.CloseClientConnections()
	b1.ts.Close()
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of 40 in-flight detects dropped during backend kill", n)
	}
	if b2.detects.Load() == 0 {
		t.Fatal("surviving backend served no traffic")
	}
}

// TestShadowByteIdentical pins the canary contract: with an identical
// candidate every shadow pair compares byte-identical, the scenario
// deltas are zero, and the report is promotable.
func TestShadowByteIdentical(t *testing.T) {
	prim := newStubBackend(t, nil)
	can := newStubBackend(t, nil)
	rt, ts := newTestRouter(t, Config{
		Backends:       []string{prim.ts.URL},
		CanaryBackends: []string{can.ts.URL},
		Candidate:      "cafe",
		CanaryPercent:  100,
		MinPairs:       5,
	})

	headers := map[string]string{
		api.EvalScenarioHeader: "outage-3",
		api.EvalTruthHeader:    "3",
	}
	for i := 0; i < 8; i++ {
		resp, _ := postDetect(t, ts.URL, headers)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("detect %d: HTTP %d", i, resp.StatusCode)
		}
	}
	rt.Differ().DrainShadow()
	rep := rt.Differ().Report()
	if rep.Pairs != 8 || rep.Identical != 8 || rep.Mismatched != 0 {
		t.Fatalf("pairs=%d identical=%d mismatched=%d, want 8/8/0", rep.Pairs, rep.Identical, rep.Mismatched)
	}
	if len(rep.Scenarios) != 1 {
		t.Fatalf("got %d scenarios, want 1", len(rep.Scenarios))
	}
	sd := rep.Scenarios[0]
	if sd.Scenario != "outage-3" || sd.DeltaIA != 0 || sd.DeltaFA != 0 {
		t.Fatalf("scenario diff = %+v, want zero deltas for outage-3", sd)
	}
	if sd.Primary.IA != 1 {
		t.Fatalf("primary IA = %v, want 1 (stub always identifies line 3)", sd.Primary.IA)
	}
	if !rep.Promotable {
		t.Fatalf("identical candidate not promotable: %v", rep.Reasons)
	}
	if can.detects.Load() != 8 {
		t.Fatalf("canary served %d detects, want 8 (full shadow)", can.detects.Load())
	}
}

// TestCanaryGatesBlockPromotion drives a canary that misidentifies the
// outage (IA regression) and asserts both the report verdict and the
// promote endpoint's 409 with the stable promotion_blocked code.
func TestCanaryGatesBlockPromotion(t *testing.T) {
	prim := newStubBackend(t, nil)
	wrong := func() (int, []byte) {
		body, _ := json.Marshal(api.DetectResponse{
			Shard:   "east",
			Reports: []*pmuoutage.Report{{Outage: true, Lines: []pmuoutage.Line{{Index: 9}}, DeviationEnergy: 1.5}},
		})
		return http.StatusOK, body
	}
	can := newStubBackend(t, wrong)
	_, ts := newTestRouter(t, Config{
		Backends:       []string{prim.ts.URL},
		CanaryBackends: []string{can.ts.URL},
		Candidate:      "cafe",
		CanaryPercent:  100,
		MinPairs:       1,
	})

	headers := map[string]string{api.EvalScenarioHeader: "outage-3", api.EvalTruthHeader: "3"}
	for i := 0; i < 4; i++ {
		postDetect(t, ts.URL, headers)
	}
	resp, err := http.Post(ts.URL+"/v1/canary/promote", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote of regressing canary: HTTP %d, want 409", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	env, ok := api.DecodeError(body)
	if !ok || env.Code != api.CodePromotionBlocked {
		t.Fatalf("promote error code = %q (ok=%v), want %q", env.Code, ok, api.CodePromotionBlocked)
	}
}

// TestIngestProxyPreservesQuery pins the binary-ingest contract: the
// router forwards the query string and content type untouched.
func TestIngestProxyPreservesQuery(t *testing.T) {
	b := newStubBackend(t, nil)
	_, ts := newTestRouter(t, Config{Backends: []string{b.ts.URL}})

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest?shard=east", bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-pmu-frame")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var got map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got["query"] != "shard=east" {
		t.Fatalf("backend saw query %q, want shard=east", got["query"])
	}
	if got["ct"] != "application/x-pmu-frame" {
		t.Fatalf("backend saw content type %q", got["ct"])
	}
}

// TestErrorRelayedByteIdentical pins that a terminal backend error —
// status, code, body — reaches the caller exactly as the backend wrote
// it, so router and backend are indistinguishable to clients.
func TestErrorRelayedByteIdentical(t *testing.T) {
	errBody, _ := json.Marshal(api.ErrorEnvelope{Code: api.CodeUnknownShard, Error: "no shard west"})
	b := newStubBackend(t, func() (int, []byte) { return http.StatusNotFound, errBody })
	_, ts := newTestRouter(t, Config{Backends: []string{b.ts.URL}})

	resp, body := postDetect(t, ts.URL, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404 relayed", resp.StatusCode)
	}
	if !bytes.Equal(body, errBody) {
		t.Fatalf("relayed error body %q differs from backend's %q", body, errBody)
	}
	env, ok := api.DecodeError(body)
	if !ok || env.Code != api.CodeUnknownShard {
		t.Fatalf("relayed code = %q, want unknown_shard", env.Code)
	}
	// A terminal error must not trip fail-over accounting: one backend,
	// one attempt.
	if n := b.detects.Load(); n != 1 {
		t.Fatalf("backend saw %d detect calls, want 1 (no retry on terminal error)", n)
	}
}

// TestReloadFingerprintSingleCall pins the fleet-reload fan-out: a
// fingerprint reload reaches each backend as exactly one
// fingerprint-only call — never a preceding empty-path reload, which
// the backend would take as "retrain a fresh model" and transiently
// serve before the requested artifact — and a request naming both
// sources is rejected at the router without touching any backend.
func TestReloadFingerprintSingleCall(t *testing.T) {
	b := newStubBackend(t, nil)
	_, ts := newTestRouter(t, Config{Backends: []string{b.ts.URL}})

	resp, err := http.Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(`{"shard":"east","fingerprint":"cafe"}`))
	if err != nil {
		t.Fatal(err)
	}
	var out api.FleetReload
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Failed {
		t.Fatalf("fingerprint reload: HTTP %d failed=%v, want clean 200", resp.StatusCode, out.Failed)
	}
	calls := b.reloadLog()
	if len(calls) != 1 {
		t.Fatalf("backend saw %d reload calls, want exactly 1", len(calls))
	}
	if calls[0].Fingerprint != "cafe" || calls[0].Path != "" {
		t.Fatalf("backend saw reload %+v, want fingerprint-only", calls[0])
	}

	resp, err = http.Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(`{"shard":"east","path":"a.json","fingerprint":"cafe"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload with both sources: HTTP %d, want 400", resp.StatusCode)
	}
	if env, ok := api.DecodeError(body); !ok || env.Code != api.CodeBadRequest {
		t.Fatalf("reload with both sources: code %q, want bad_request", env.Code)
	}
	if n := len(b.reloadLog()); n != 1 {
		t.Fatalf("ambiguous reload reached the backend (%d calls)", n)
	}
}

// TestReloadPatchBroadcast pins the patch fan-out: a patch_path reload
// reaches each backend as exactly one patch-only call, and a request
// mixing a patch with a model source is rejected at the router.
func TestReloadPatchBroadcast(t *testing.T) {
	b1 := newStubBackend(t, nil)
	b2 := newStubBackend(t, nil)
	_, ts := newTestRouter(t, Config{Backends: []string{b1.ts.URL, b2.ts.URL}})

	resp, err := http.Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(`{"shard":"east","patch_path":"delta.patch.json"}`))
	if err != nil {
		t.Fatal(err)
	}
	var out api.FleetReload
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Failed {
		t.Fatalf("patch reload: HTTP %d failed=%v, want clean 200", resp.StatusCode, out.Failed)
	}
	if len(out.Results) != 2 {
		t.Fatalf("fleet reload returned %d results, want 2", len(out.Results))
	}
	for _, b := range []*stubBackend{b1, b2} {
		calls := b.reloadLog()
		if len(calls) != 1 {
			t.Fatalf("backend saw %d reload calls, want exactly 1", len(calls))
		}
		if calls[0].PatchPath != "delta.patch.json" || calls[0].Path != "" || calls[0].Fingerprint != "" {
			t.Fatalf("backend saw reload %+v, want patch-only", calls[0])
		}
	}

	resp, err = http.Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(`{"shard":"east","patch_path":"delta.patch.json","fingerprint":"cafe"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload mixing patch and fingerprint: HTTP %d, want 400", resp.StatusCode)
	}
	if env, ok := api.DecodeError(body); !ok || env.Code != api.CodeBadRequest {
		t.Fatalf("reload mixing patch and fingerprint: code %q, want bad_request", env.Code)
	}
	if n := len(b1.reloadLog()) + len(b2.reloadLog()); n != 2 {
		t.Fatalf("ambiguous reload reached a backend (%d total calls)", n)
	}
}

// TestPromotePartialFailureSurfaced pins that a promotion which cannot
// reach every backend is never a silent success: the response carries a
// top-level failed flag (200 while at least one backend took the
// model; 502 when none did), with the per-backend error embedded.
func TestPromotePartialFailureSurfaced(t *testing.T) {
	alive := newStubBackend(t, nil)
	dead := newStubBackend(t, nil)
	_, ts := newTestRouter(t, Config{Backends: []string{alive.ts.URL, dead.ts.URL}})
	dead.ts.CloseClientConnections()
	dead.ts.Close()

	promote := func(base string) (int, api.PromoteResponse) {
		t.Helper()
		resp, err := http.Post(base+"/v1/canary/promote", "application/json",
			strings.NewReader(`{"fingerprint":"cafe","shards":["east"],"force":true}`))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var out api.PromoteResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	status, out := promote(ts.URL)
	if status != http.StatusOK {
		t.Fatalf("partial promotion: HTTP %d, want 200 (one backend succeeded)", status)
	}
	if !out.Failed {
		t.Fatal("partial promotion did not set the top-level failed flag")
	}
	var okResults, errResults int
	for _, br := range out.Results {
		switch {
		case br.Error != "":
			errResults++
		case len(br.Results) == 1 && br.Results[0].Model == "cafe":
			okResults++
		}
	}
	if okResults != 1 || errResults != 1 {
		t.Fatalf("results = %+v, want one reloaded backend and one errored", out.Results)
	}

	// With every backend unreachable the promotion answers non-200.
	_, tsAllDead := newTestRouter(t, Config{Backends: []string{dead.ts.URL}})
	status, out = promote(tsAllDead.URL)
	if status != http.StatusBadGateway || !out.Failed {
		t.Fatalf("all-dead promotion: HTTP %d failed=%v, want 502 with failed set", status, out.Failed)
	}
}

// TestPromoteUnprobedPrimaryFails pins that a promotion which reloads
// nothing onto a primary is a failure for that backend even while it
// counts as healthy: before the first probe lists its shards the router
// has no shard set to reload, and a 200 with failed unset would hide the
// fleet split.
func TestPromoteUnprobedPrimaryFails(t *testing.T) {
	b := newStubBackend(t, nil)
	_, ts := newTestRouter(t, Config{Backends: []string{b.ts.URL}, ProbeEvery: time.Hour})
	resp, err := http.Post(ts.URL+"/v1/canary/promote", "application/json",
		strings.NewReader(`{"fingerprint":"cafe","force":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var out api.PromoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadGateway || !out.Failed {
		t.Fatalf("unprobed promotion: HTTP %d failed=%v, want 502 with failed set", resp.StatusCode, out.Failed)
	}
	if len(out.Results) != 1 || out.Results[0].Backend != b.ts.URL || out.Results[0].Error == "" {
		t.Fatalf("results = %+v, want one errored entry for %s", out.Results, b.ts.URL)
	}
	if calls := b.reloadLog(); len(calls) != 0 {
		t.Fatalf("backend saw %d reload calls, want none", len(calls))
	}
}

// TestShadowTimeoutUnwedgesDrain pins the shadow deadline: a canary
// backend that accepts the request and never answers must resolve as a
// canary error within Config.ShadowTimeout, not pin the shadow
// goroutine and wedge DrainShadow (report, promote, Close).
func TestShadowTimeoutUnwedgesDrain(t *testing.T) {
	prim := newStubBackend(t, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode([]api.ShardStatus{{Name: "east", State: "ready"}})
	})
	// The handler hangs until the test ends (the server cannot observe
	// the client-side shadow-deadline abort while the request body sits
	// unread, so an explicit stop channel unblocks it for Close).
	stop := make(chan struct{})
	mux.HandleFunc("POST /v1/detect", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	})
	hung := httptest.NewServer(mux)
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(stop) })

	rt, ts := newTestRouter(t, Config{
		Backends:       []string{prim.ts.URL},
		CanaryBackends: []string{hung.URL},
		Candidate:      "cafe",
		CanaryPercent:  100,
		ShadowTimeout:  50 * time.Millisecond,
	})
	resp, _ := postDetect(t, ts.URL, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary detect: HTTP %d", resp.StatusCode)
	}
	done := make(chan struct{})
	go func() {
		rt.Differ().DrainShadow()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("DrainShadow wedged on a hung canary backend")
	}
	if rep := rt.Differ().Report(); rep.CanaryErrors != 1 {
		t.Fatalf("canary errors = %d, want 1 (timed-out shadow copy)", rep.CanaryErrors)
	}
}

// endlessZeros is a body that never ends — the oversize-rejection probe.
type endlessZeros struct{}

func (endlessZeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestOversizeBodyRejected pins that a body past the 64 MiB bound is
// rejected whole with the too_large code (413), never truncated and
// forwarded.
func TestOversizeBodyRejected(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", endlessZeros{})
	_, err := readBody(req)
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("readBody(oversized) = %v, want ErrBodyTooLarge", err)
	}
	if code := bodyCode(err); code != api.CodeTooLarge {
		t.Fatalf("bodyCode = %q, want too_large", code)
	}
}

// TestCallerTraceIDVerbatim: a caller X-Trace-Id that is not 16 hex
// chars cannot ride Traceparent. It must still route (no backend is
// ejected over it) and reach the backend unchanged, not truncated.
func TestCallerTraceIDVerbatim(t *testing.T) {
	b1 := newStubBackend(t, nil)
	b2 := newStubBackend(t, nil)
	rt, ts := newTestRouter(t, Config{Backends: []string{b1.ts.URL, b2.ts.URL}})
	seen := func(b *stubBackend) string {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.traceID
	}
	for _, id := range []string{"abc", "0123456789abcdef0123"} {
		resp, body := postDetect(t, ts.URL, map[string]string{obs.TraceHeader: id})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("X-Trace-Id %q: status %d: %s", id, resp.StatusCode, body)
		}
		if got := resp.Header.Get(obs.TraceHeader); got != id {
			t.Errorf("router echoed trace %q, want %q", got, id)
		}
		if seen(b1) != id && seen(b2) != id {
			t.Errorf("no backend filed the detect under %q: saw %q and %q", id, seen(b1), seen(b2))
		}
	}
	for _, b := range rt.primary.backends {
		if n := b.ejections.Load(); n != 0 {
			t.Errorf("backend %s ejected %d times", b.url, n)
		}
	}
}

// TestEjectionAndReadmission watches the prober's lifecycle: a backend
// that dies is ejected (healthz flips), and readmitted once it
// answers again.
func TestEjectionAndReadmission(t *testing.T) {
	mux := http.NewServeMux()
	var down atomic.Bool
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode([]api.ShardStatus{})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	rt, _ := newTestRouter(t, Config{Backends: []string{ts.URL}, ProbeEvery: 5 * time.Millisecond})
	waitHealthy := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if rt.primary.backends[0].healthy.Load() == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("backend healthy != %v within deadline", want)
	}
	waitHealthy(true)
	down.Store(true)
	waitHealthy(false)
	if rt.primary.backends[0].ejections.Load() == 0 {
		t.Fatal("ejection not counted")
	}
	down.Store(false)
	waitHealthy(true)
}
