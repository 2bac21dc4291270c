package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/service"
)

// dataPlane boots a single-shard ieee14 service and returns its routes,
// served in process, with one normal sample of its system.
func dataPlane(tb testing.TB) (http.Handler, pmuoutage.Sample) {
	tb.Helper()
	m, err := pmuoutage.TrainModel(trainOpts(3))
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := service.New(context.Background(), service.Config{Shards: []service.ShardSpec{{Name: "east", Model: m}}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(svc.Close)
	normal, err := waitShardReady(tb, svc, "east").SimulateOutage(nil, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return New(svc, 30*time.Second, nil).Routes(), normal[0]
}

// withAngle returns a copy of s with bus 3's angle set to v.
func withAngle(s pmuoutage.Sample, v float64) pmuoutage.Sample {
	out := pmuoutage.Sample{Vm: s.Vm, Va: slices.Clone(s.Va), Missing: s.Missing}
	out.Va[3] = v
	return out
}

// serve posts one body to h in process.
func serve(h http.Handler, target, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestNonFiniteSampleBadRequest: a sample whose deviation energy is not
// finite answers 400 bad_sample on /v1/detect (1e200, the one such
// value JSON carries) and, frame after frame, on binary /v1/ingest
// (NaN, +Inf and 1e200). It used to answer 200 with an empty body on
// detect, and binary ingest confirmed an outage event on the third
// frame.
func TestNonFiniteSampleBadRequest(t *testing.T) {
	h, normal := dataPlane(t)
	wantBadSample := func(t *testing.T, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400: %s", rec.Code, rec.Body.Bytes())
		}
		if env, ok := api.DecodeError(rec.Body.Bytes()); !ok || env.Code != api.CodeBadSample {
			t.Fatalf("error envelope = %+v (decoded %v), want code bad_sample", env, ok)
		}
	}
	t.Run("detect 1e200", func(t *testing.T) {
		body, err := json.Marshal(DetectRequest{Shard: "east", Samples: []pmuoutage.Sample{withAngle(normal, 1e200)}})
		if err != nil {
			t.Fatal(err)
		}
		wantBadSample(t, serve(h, "/v1/detect", "application/json", body))
	})
	for _, v := range []float64{math.NaN(), math.Inf(1), 1e200} {
		t.Run(fmt.Sprint("ingest frame ", v), func(t *testing.T) {
			for seq := uint32(1); seq <= 4; seq++ {
				wantBadSample(t, serve(h, "/v1/ingest?shard=east", FrameContentType, encodeFrame(t, seq, withAngle(normal, v))))
			}
		})
	}
}

// FuzzDataPlaneBodies sends /v1/detect JSON bodies (frame false) and
// binary /v1/ingest frames (frame true) to an ieee14 service. Whatever
// the body, the server must not panic or answer 5xx, and every 200
// body must decode into its response type.
func FuzzDataPlaneBodies(f *testing.F) {
	h, normal := dataPlane(f)
	valid, err := json.Marshal(DetectRequest{Shard: "east", Samples: []pmuoutage.Sample{normal}})
	if err != nil {
		f.Fatal(err)
	}
	huge, err := json.Marshal(DetectRequest{Shard: "east", Samples: []pmuoutage.Sample{withAngle(normal, 1e200)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, valid)
	f.Add(false, huge)
	f.Add(true, encodeFrame(f, 1, withAngle(normal, math.NaN())))
	f.Fuzz(func(t *testing.T, frame bool, body []byte) {
		target, contentType, out := "/v1/detect", "application/json", any(new(DetectResponse))
		if frame {
			target, contentType, out = "/v1/ingest?shard=east", FrameContentType, new(IngestResponse)
		}
		rec := serve(h, target, contentType, body)
		if rec.Code >= 500 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				t.Fatalf("200 body does not decode into %T: %v: %q", out, err, rec.Body.Bytes())
			}
		}
	})
}
