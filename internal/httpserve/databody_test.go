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
// finite answers 400 bad_sample on JSON /v1/detect (1e200, the one such
// value JSON carries), on binary /v1/detect and, frame after frame, on
// binary /v1/ingest (NaN, +Inf and 1e200). It used to answer 200 with an empty body on
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
		body, err := json.Marshal(api.DetectRequest{Shard: "east", Samples: []pmuoutage.Sample{withAngle(normal, 1e200)}})
		if err != nil {
			t.Fatal(err)
		}
		wantBadSample(t, serve(h, "/v1/detect", "application/json", body))
	})
	for _, v := range []float64{math.NaN(), math.Inf(1), 1e200} {
		t.Run(fmt.Sprint("ingest frame ", v), func(t *testing.T) {
			for seq := uint32(1); seq <= 4; seq++ {
				wantBadSample(t, serve(h, "/v1/ingest?shard=east", api.FrameContentType, encodeFrame(t, seq, withAngle(normal, v))))
			}
		})
		t.Run(fmt.Sprint("detect frames ", v), func(t *testing.T) {
			body := encodeFrames(t, []pmuoutage.Sample{normal, withAngle(normal, v)})
			wantBadSample(t, serve(h, "/v1/detect?shard=east", api.FrameContentType, body))
		})
	}
}

// FuzzDataPlaneBodies sends /v1/detect JSON bodies (kind%3 == 0),
// binary /v1/ingest frames (1) and binary /v1/detect bodies (2) to an
// ieee14 service. Whatever the body, the server must not panic or
// answer 5xx, and every 200 body must decode into its response type.
func FuzzDataPlaneBodies(f *testing.F) {
	h, normal := dataPlane(f)
	valid, err := json.Marshal(api.DetectRequest{Shard: "east", Samples: []pmuoutage.Sample{normal}})
	if err != nil {
		f.Fatal(err)
	}
	huge, err := json.Marshal(api.DetectRequest{Shard: "east", Samples: []pmuoutage.Sample{withAngle(normal, 1e200)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), valid)
	f.Add(uint8(0), huge)
	f.Add(uint8(1), encodeFrame(f, 1, withAngle(normal, math.NaN())))
	one := encodeFrame(f, 1, normal)
	three := encodeFrames(f, []pmuoutage.Sample{normal, normal.WithMissing(1, 4), withAngle(normal, 0.5)})
	nan := encodeFrame(f, 1, withAngle(normal, math.NaN()))
	short := encodeFrame(f, 1, pmuoutage.Sample{Vm: normal.Vm[1:], Va: normal.Va[1:]})
	// Binary detect: zero frames, three frames, the last of them
	// truncated, bytes after a frame, a NaN frame, and a frame for the
	// wrong bus count.
	for _, body := range [][]byte{nil, three, three[:len(three)-5], append(one, 0xAA, 0x31, 0x00), nan, short} {
		f.Add(uint8(2), body)
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		target, contentType, out := "/v1/detect", "application/json", any(new(api.DetectResponse))
		switch kind % 3 {
		case 1:
			target, contentType, out = "/v1/ingest?shard=east", api.FrameContentType, new(api.IngestResponse)
		case 2:
			target, contentType = "/v1/detect?shard=east", api.FrameContentType
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
