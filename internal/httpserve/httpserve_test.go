package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/service"
	"pmuoutage/internal/wire"
)

// trainOpts is the fast deterministic recipe every test model uses.
func trainOpts(seed int64) pmuoutage.Options {
	return pmuoutage.Options{Case: "ieee14", TrainSteps: 12, Seed: seed, UseDC: true, Workers: 2}
}

// newModelServer boots one single-shard service from a pre-trained
// artifact behind httptest, with optional config mutation.
func newModelServer(t *testing.T, m *pmuoutage.Model, mut func(*service.Config)) (*service.Service, *httptest.Server) {
	t.Helper()
	cfg := service.Config{
		Shards:         []service.ShardSpec{{Name: "east", Model: m}},
		RestartBackoff: time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	svc, err := service.New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(New(svc, 30*time.Second, nil).Routes())
	t.Cleanup(ts.Close)
	waitShardReady(t, svc, "east")
	return svc, ts
}

func waitShardReady(t testing.TB, svc *service.Service, name string) *pmuoutage.System {
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

// outageTrace simulates n outage samples with missing measurements
// injected on every third one.
func outageTrace(t *testing.T, sys *pmuoutage.System, n int) []pmuoutage.Sample {
	t.Helper()
	samples, err := sys.SimulateOutage([]int{sys.ValidLines()[0]}, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		if i%3 == 0 {
			samples[i] = samples[i].WithMissing(0, len(samples[i].Vm)-1)
		}
	}
	return samples
}

// post sends one body to base+target and returns the status and body.
func post(t *testing.T, base, target, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+target, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// postIngestJSON round-trips one sample as a JSON body and returns the
// raw response.
func postIngestJSON(t *testing.T, base, shard string, s pmuoutage.Sample) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(api.IngestRequest{Shard: shard, Sample: s})
	if err != nil {
		t.Fatal(err)
	}
	return post(t, base, "/v1/ingest", "application/json", body)
}

// postIngestFrame round-trips one sample as a binary wire frame.
func postIngestFrame(t *testing.T, base, shard string, seq uint32, s pmuoutage.Sample) (int, []byte) {
	t.Helper()
	return postFrameBytes(t, base, shard, encodeFrame(t, seq, s))
}

// encodeFrame encodes one sample as a binary wire frame.
func encodeFrame(tb testing.TB, seq uint32, s pmuoutage.Sample) []byte {
	tb.Helper()
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	var mask []bool
	if len(s.Missing) > 0 {
		mask = make([]bool, len(s.Vm))
		for _, i := range s.Missing {
			mask[i] = true
		}
	}
	if err := f.Pack(seq, s.Vm, s.Va, mask); err != nil {
		tb.Fatal(err)
	}
	enc, err := wire.AppendFrame(nil, f)
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

func postFrameBytes(t *testing.T, base, shard string, enc []byte) (int, []byte) {
	t.Helper()
	return post(t, base, "/v1/ingest?shard="+shard, api.FrameContentType, enc)
}

// TestBinaryIngestMatchesJSON pins the transport-equivalence contract:
// the same outage trace pushed as JSON bodies to one service and as
// binary wire frames to a twin booted from the same artifact produces
// byte-identical response bodies — events included — and the per-mode
// admission counters record each transport. The trace mixes complete
// samples, buses 0 and n−1 dark, and bus 0 alone dark (the one-dark-bus
// mask the detector's plan slots serve).
func TestBinaryIngestMatchesJSON(t *testing.T) {
	m, err := pmuoutage.TrainModel(trainOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	svcJSON, tsJSON := newModelServer(t, m, nil)
	svcBin, tsBin := newModelServer(t, m, nil)
	sys := waitShardReady(t, svcJSON, "east")
	samples := outageTrace(t, sys, 12)
	for i := 1; i < len(samples); i += 3 {
		samples[i] = samples[i].WithMissing(0)
	}

	events := 0
	for i, s := range samples {
		jsStatus, jsBody := postIngestJSON(t, tsJSON.URL, "east", s)
		binStatus, binBody := postIngestFrame(t, tsBin.URL, "east", uint32(i), s)
		if jsStatus != http.StatusOK || binStatus != http.StatusOK {
			t.Fatalf("sample %d: json %d, binary %d\njson: %s\nbinary: %s", i, jsStatus, binStatus, jsBody, binBody)
		}
		if !bytes.Equal(jsBody, binBody) {
			t.Fatalf("sample %d responses diverge:\njson:   %s\nbinary: %s", i, jsBody, binBody)
		}
		var out api.IngestResponse
		if err := json.Unmarshal(binBody, &out); err != nil {
			t.Fatal(err)
		}
		if out.Event != nil {
			events++
		}
	}
	if events == 0 {
		t.Fatal("outage trace confirmed no events; the equivalence check is vacuous")
	}
	if got := svcJSON.Stats()["east"].FramesJSON; got != uint64(len(samples)) {
		t.Fatalf("json admissions = %d, want %d", got, len(samples))
	}
	if got := svcBin.Stats()["east"].FramesBinary; got != uint64(len(samples)) {
		t.Fatalf("binary admissions = %d, want %d", got, len(samples))
	}
}

// TestBinaryIngestErrors maps corrupt frames and unknown shards onto
// the same status taxonomy the JSON mode uses.
func TestBinaryIngestErrors(t *testing.T) {
	m, err := pmuoutage.TrainModel(trainOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newModelServer(t, m, nil)
	sys := waitShardReady(t, svc, "east")
	samples := outageTrace(t, sys, 1)

	t.Run("corrupt frame 400", func(t *testing.T) {
		status, body := postFrameBytes(t, ts.URL, "east", []byte{0xAA, 0x31, 0x00})
		if status != http.StatusBadRequest {
			t.Fatalf("status = %d: %s", status, body)
		}
		var e api.ErrorEnvelope
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if e.Retryable {
			t.Fatalf("corrupt frame marked retryable: %+v", e)
		}
	})
	t.Run("bad crc 400", func(t *testing.T) {
		f := wire.GetFrame()
		defer wire.PutFrame(f)
		if err := f.Pack(1, samples[0].Vm, samples[0].Va, nil); err != nil {
			t.Fatal(err)
		}
		enc, err := wire.AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		enc[len(enc)-1] ^= 0xFF
		if status, body := postFrameBytes(t, ts.URL, "east", enc); status != http.StatusBadRequest {
			t.Fatalf("status = %d: %s", status, body)
		}
	})
	t.Run("unknown shard 404", func(t *testing.T) {
		if status, body := postIngestFrame(t, ts.URL, "nope", 1, samples[0]); status != http.StatusNotFound {
			t.Fatalf("status = %d: %s", status, body)
		}
	})
	if snap := svc.Stats()["east"]; snap.FramesBinary != 0 {
		t.Fatalf("failed requests counted as admissions: %+v", snap)
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

var spaceBlock = bytes.Repeat([]byte(" "), 32<<10)

func (spaces) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		n += copy(p[n:], spaceBlock)
	}
	return n, nil
}

// TestOversizedJSONBodyRejected: a detect body past api.MaxBodyBytes
// sent straight to a backend — a valid request padded with whitespace —
// is refused with 413 too_large, the router's answer for the same body,
// instead of being buffered and served.
func TestOversizedJSONBodyRejected(t *testing.T) {
	svc, err := service.New(context.Background(), service.Config{Shards: []service.ShardSpec{{Name: "east", Opts: trainOpts(3)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	body := io.MultiReader(
		strings.NewReader(`{"shard":"east","samples":[]`),
		io.LimitReader(spaces{}, api.MaxBodyBytes),
		strings.NewReader(`}`),
	)
	rec := httptest.NewRecorder()
	New(svc, time.Second, nil).Routes().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", rec.Code, rec.Body.Bytes())
	}
	if env, ok := api.DecodeError(rec.Body.Bytes()); !ok || env.Code != api.CodeTooLarge {
		t.Fatalf("error envelope = %+v (decoded %v), want code too_large", env, ok)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestDeclaredOversizedBodyUnread: a body whose Content-Length declares
// one byte past api.MaxBodyBytes is refused with 413 too_large before a
// byte of it is read, on every route that reads a body, as the router
// and the registry refuse it.
func TestDeclaredOversizedBodyUnread(t *testing.T) {
	svc, err := service.New(context.Background(), service.Config{Shards: []service.ShardSpec{{Name: "east", Opts: trainOpts(3)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := New(svc, time.Second, nil).Routes()
	for _, c := range []struct{ name, target, contentType string }{
		{"json detect", "/v1/detect", "application/json"},
		{"frame detect", "/v1/detect?shard=east", api.FrameContentType},
		{"json ingest", "/v1/ingest", "application/json"},
		{"frame ingest", "/v1/ingest?shard=east", api.FrameContentType},
		{"reload", "/v1/reload", "application/json"},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := &countingReader{r: spaces{}}
			req := httptest.NewRequest(http.MethodPost, c.target, body)
			req.Header.Set("Content-Type", c.contentType)
			req.ContentLength = api.MaxBodyBytes + 1
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status = %d, want 413: %s", rec.Code, rec.Body.Bytes())
			}
			if env, ok := api.DecodeError(rec.Body.Bytes()); !ok || env.Code != api.CodeTooLarge {
				t.Fatalf("error envelope = %+v (decoded %v), want code too_large", env, ok)
			}
			if body.n != 0 {
				t.Fatalf("read %d body bytes before refusing the declared length", body.n)
			}
		})
	}
}

// BenchmarkIngestJSON and BenchmarkIngestBinary measure the two HTTP
// transports end to end against a parked monitor path (handler decode +
// synchronous scoring) over a loopback listener.
func BenchmarkIngestJSON(b *testing.B) {
	base, sample := benchServer(b)
	body, err := json.Marshal(api.IngestRequest{Shard: "east", Sample: sample})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
}

func BenchmarkIngestBinary(b *testing.B) {
	base, sample := benchServer(b)
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	if err := f.Pack(1, sample.Vm, sample.Va, nil); err != nil {
		b.Fatal(err)
	}
	enc, err := wire.AppendFrame(nil, f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(base+"/v1/ingest?shard=east", api.FrameContentType, bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
}

func benchServer(b *testing.B) (string, pmuoutage.Sample) {
	b.Helper()
	m, err := pmuoutage.TrainModel(trainOpts(3))
	if err != nil {
		b.Fatal(err)
	}
	svc, err := service.New(context.Background(), service.Config{
		Shards:         []service.ShardSpec{{Name: "east", Model: m}},
		RestartBackoff: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	ts := httptest.NewServer(New(svc, 30*time.Second, nil).Routes())
	b.Cleanup(ts.Close)
	deadline := time.Now().Add(time.Minute)
	for !svc.Ready() {
		if time.Now().After(deadline) {
			b.Fatal("shard never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	sys, err := svc.System("east")
	if err != nil {
		b.Fatal(err)
	}
	samples, err := sys.SimulateOutage([]int{sys.ValidLines()[0]}, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ts.URL, samples[0]
}
