package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/wire"
)

// writeJSON and jsonDecode are tiny test-server helpers.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func jsonDecode(r *http.Request, v any) error {
	return json.NewDecoder(r.Body).Decode(v)
}

func testClient(t *testing.T, ts *httptest.Server) *Client {
	t.Helper()
	c, err := New(Config{
		BaseURL:     ts.URL,
		MaxRetries:  3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty BaseURL: got %v", err)
	}
	c, err := New(Config{BaseURL: "http://x/"})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.BaseURL != "http://x" {
		t.Fatalf("BaseURL not normalised: %q", c.cfg.BaseURL)
	}
}

// TestDetectSuccess: a plain 200 round trip decodes the reports and
// sends the expected shard and samples.
func TestDetectSuccess(t *testing.T) {
	var gotBody api.DetectRequest
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/detect" || r.Method != http.MethodPost {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
		}
		gotBody = decodeDetect(t, r)
		writeJSON(w, http.StatusOK, api.DetectResponse{Shard: gotBody.Shard, Reports: []*pmuoutage.Report{{Outage: true}}})
	}))
	defer ts.Close()

	samples := []pmuoutage.Sample{{Vm: []float64{1}, Va: []float64{0}}}
	reports, err := testClient(t, ts).Detect(context.Background(), "east", samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || !reports[0].Outage {
		t.Fatalf("reports = %+v", reports)
	}
	if gotBody.Shard != "east" || !reflect.DeepEqual(gotBody.Samples, samples) {
		t.Fatalf("request body = %+v", gotBody)
	}
}

// TestRetryOn503ThenSuccess: retryable statuses are retried and the
// Retry-After header is honoured (0 seconds here, to keep the test
// fast, but the header must be parsed and accepted).
func TestRetryOn503ThenSuccess(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "training", "retryable": true})
		case 2:
			writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": "overloaded", "retryable": true})
		default:
			writeJSON(w, http.StatusOK, api.DetectResponse{Reports: []*pmuoutage.Report{{}}})
		}
	}))
	defer ts.Close()

	if _, err := testClient(t, ts).Detect(context.Background(), "east", nil); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3", n)
	}
}

// TestTerminalStatusDoesNotRetry: a 400 fails immediately with
// ErrRequest after exactly one attempt.
func TestTerminalStatusDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad sample"})
	}))
	defer ts.Close()

	_, err := testClient(t, ts).Detect(context.Background(), "east", nil)
	if !errors.Is(err, ErrRequest) {
		t.Fatalf("got %v, want ErrRequest", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1", n)
	}
}

// TestExhaustedRetries: persistent 503s exhaust the budget and fail
// with ErrExhausted carrying the last failure.
func TestExhaustedRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "down"})
	}))
	defer ts.Close()

	_, err := testClient(t, ts).Detect(context.Background(), "east", nil)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
	if n := calls.Load(); n != 4 { // 1 try + 3 retries
		t.Fatalf("server saw %d calls, want 4", n)
	}
}

// TestContextCancelsBackoff: a context cancelled while the client waits
// between attempts aborts the loop with the context error.
func TestContextCancelsBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "down"})
	}))
	defer ts.Close()

	c, err := New(Config{BaseURL: ts.URL, MaxRetries: 5, BaseBackoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Detect(ctx, "east", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the backoff wait")
	}
}

// TestReload: the reload call posts the shard and path and decodes the
// generation/fingerprint reply.
func TestReload(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/reload" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		var req api.ReloadRequest
		decodeInto(t, r, &req)
		if req.Shard != "east" || req.Path != "/tmp/m.json" {
			t.Errorf("request = %+v", req)
		}
		writeJSON(w, http.StatusOK, ReloadResult{Shard: req.Shard, Generation: 2, Model: "abc"})
	}))
	defer ts.Close()

	res, err := testClient(t, ts).Reload(context.Background(), "east", "/tmp/m.json")
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || res.Model != "abc" {
		t.Fatalf("result = %+v", res)
	}
}

func TestParseRetryAfter(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"":        0,
		"1":       time.Second,
		" 2 ":     2 * time.Second,
		"-3":      0,
		"later":   0,
		"1.5":     0,
		"0":       0,
		"Thu, 01": 0,
	} {
		if got := parseRetryAfter(in); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}
}

// decodeDetect reads a detect request in either transport: binary wire
// frames with the shard in ?shard=, or the JSON body.
func decodeDetect(t *testing.T, r *http.Request) api.DetectRequest {
	t.Helper()
	if r.Header.Get("Content-Type") != api.FrameContentType {
		var req api.DetectRequest
		decodeInto(t, r, &req)
		return req
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	req := api.DetectRequest{Shard: r.URL.Query().Get("shard")}
	var f wire.Frame
	for off := 0; off < len(body); {
		n, err := wire.DecodeFrame(body[off:], &f)
		if err != nil {
			t.Fatalf("frame at byte %d: %v", off, err)
		}
		off += n
		s := pmuoutage.Sample{Vm: slices.Clone(f.Vm), Va: slices.Clone(f.Va)}
		for i := 0; i < f.N(); i++ {
			if f.IsMissing(i) {
				s.Missing = append(s.Missing, i)
			}
		}
		req.Samples = append(req.Samples, s)
	}
	return req
}

func decodeInto(t *testing.T, r *http.Request, v any) {
	t.Helper()
	if err := jsonDecode(r, v); err != nil {
		t.Fatal(err)
	}
}
