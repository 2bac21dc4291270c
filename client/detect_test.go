package client

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/service"
)

// detectBackend boots a single-shard ieee14 daemon in process and
// returns a client for it, its system, and a log of the Content-Type of
// every request it served.
func detectBackend(t *testing.T) (*Client, *pmuoutage.System, func() []string) {
	t.Helper()
	m, err := pmuoutage.TrainModel(pmuoutage.Options{Case: "ieee14", TrainSteps: 12, Seed: 3, UseDC: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(context.Background(), service.Config{Shards: []service.ShardSpec{{Name: "east", Model: m}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	var sys *pmuoutage.System
	for deadline := time.Now().Add(time.Minute); sys == nil; time.Sleep(5 * time.Millisecond) {
		if sys, err = svc.System("east"); err != nil && time.Now().After(deadline) {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var types []string
	h := httpserve.New(svc, 30*time.Second, nil).Routes()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		types = append(types, r.Header.Get("Content-Type"))
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return testClient(t, ts), sys, func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := types
		types = nil
		return out
	}
}

// TestDetectTransport pins which body Detect sends. Samples that fit a
// wire frame go as frames and get the library's answer. A length
// mismatch, a missing index out of range, a sample with no buses and an
// empty batch go as JSON and get the answer the JSON path has always
// given. NaN and infinite values, which JSON cannot carry, now reach the
// server in frames and come back as bad_sample.
func TestDetectTransport(t *testing.T) {
	c, sys, types := detectBackend(t)
	outage, err := sys.SimulateOutage([]int{sys.ValidLines()[0]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := outage[0]
	withAngle := func(v float64) pmuoutage.Sample {
		out := pmuoutage.Sample{Vm: s.Vm, Va: slices.Clone(s.Va)}
		out.Va[2] = v
		return out
	}
	ctx := context.Background()

	t.Run("frames", func(t *testing.T) {
		for _, batch := range [][]pmuoutage.Sample{
			{s},
			{s.WithMissing(4)},
			{s, outage[1].WithMissing(sys.Clusters()[0]...), {Vm: s.Vm, Va: s.Va, Missing: []int{3, 3, 1}}},
		} {
			got, err := c.Detect(ctx, "east", batch)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sys.DetectBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if err := httpserve.CompareReports(got, want); err != nil {
				t.Fatal(err)
			}
			if ct := types(); !slices.Equal(ct, []string{api.FrameContentType}) {
				t.Fatalf("%d-sample batch sent as %q, want one frame body", len(batch), ct)
			}
		}
	})

	t.Run("json", func(t *testing.T) {
		for _, c2 := range []struct {
			name    string
			batch   []pmuoutage.Sample
			wantErr string
		}{
			{"length mismatch", []pmuoutage.Sample{s, {Vm: s.Vm, Va: s.Va[:13]}}, "pmuoutage: bad sample: sample has 14/13 values, grid has 14 buses"},
			{"missing index 14", []pmuoutage.Sample{s.WithMissing(14)}, "pmuoutage: bad sample: missing index 14 out of range 14"},
			{"missing index -1", []pmuoutage.Sample{s.WithMissing(-1)}, "pmuoutage: bad sample: missing index -1 out of range 14"},
			{"no buses", []pmuoutage.Sample{{}}, "pmuoutage: bad sample: sample has 0/0 values, grid has 14 buses"},
			{"empty batch", nil, ""},
		} {
			t.Run(c2.name, func(t *testing.T) {
				reps, err := c.Detect(ctx, "east", c2.batch)
				if ct := types(); !slices.Equal(ct, []string{"application/json"}) {
					t.Fatalf("sent as %q, want one JSON body", ct)
				}
				if c2.wantErr == "" {
					if err != nil || reps != nil {
						t.Fatalf("empty batch: reports %v, error %v; want none and nil", reps, err)
					}
					return
				}
				wantServerError(t, err, c2.wantErr)
			})
		}
	})

	t.Run("non-finite", func(t *testing.T) {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			_, err := c.Detect(ctx, "east", []pmuoutage.Sample{s, withAngle(v)})
			wantServerError(t, err, "pmuoutage: bad sample: detect: non-finite deviation energy")
			if ct := types(); !slices.Equal(ct, []string{api.FrameContentType}) {
				t.Fatalf("sample with angle %v sent as %q, want one frame body", v, ct)
			}
		}
	})
}

// wantServerError requires err to be the server's terminal bad_sample
// answer with the given error text.
func wantServerError(t *testing.T, err error, text string) {
	t.Helper()
	var se *ServerError
	if !errors.As(err, &se) || !errors.Is(err, ErrRequest) {
		t.Fatalf("error %v, want a terminal ServerError", err)
	}
	env, ok := api.DecodeError([]byte(se.Body))
	if !ok || se.Code != api.CodeBadSample || env.Code != api.CodeBadSample || env.Error != text || se.Status != http.StatusBadRequest {
		t.Fatalf("server answered HTTP %d %q: %q, want 400 %q: %q", se.Status, se.Code, env.Error, api.CodeBadSample, text)
	}
}
