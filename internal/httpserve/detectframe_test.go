package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/router"
	"pmuoutage/internal/service"
	"pmuoutage/internal/wire"
)

// encodeFrames encodes samples as one binary detect body: their wire
// frames back to back.
func encodeFrames(tb testing.TB, samples []pmuoutage.Sample) []byte {
	tb.Helper()
	var body []byte
	for i, s := range samples {
		body = append(body, encodeFrame(tb, uint32(i), s)...)
	}
	return body
}

// detectMix is the sample mix the transport tests send: normal and
// outage samples, each complete, with one bus dark and with a whole PDC
// cluster dark.
func detectMix(t *testing.T, sys *pmuoutage.System) []pmuoutage.Sample {
	t.Helper()
	normal, err := sys.SimulateOutage(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	outage, err := sys.SimulateOutage([]int{sys.ValidLines()[0]}, 3)
	if err != nil {
		t.Fatal(err)
	}
	cluster := sys.Clusters()[0]
	var out []pmuoutage.Sample
	for _, set := range [][]pmuoutage.Sample{normal, outage} {
		out = append(out, set[0], set[1].WithMissing(1), set[2].WithMissing(cluster...))
	}
	return out
}

// TestBinaryDetectMatchesJSON pins the detect transport contract: on
// ieee14 and ieee30, for complete, one-bus-dark and cluster-dark
// samples sent one per body and all in one body, a binary detect body
// gets the byte-identical response a JSON body gets — from a backend,
// and through a router whose canary shadows every request, where every
// shadow pair must compare identical.
func TestBinaryDetectMatchesJSON(t *testing.T) {
	for _, caseName := range []string{"ieee14", "ieee30"} {
		t.Run(caseName, func(t *testing.T) {
			opts := trainOpts(3)
			opts.Case = caseName
			m, err := pmuoutage.TrainModel(opts)
			if err != nil {
				t.Fatal(err)
			}
			svc, primary := newModelServer(t, m, nil)
			_, canary := newModelServer(t, m, nil)
			rt, err := router.New(context.Background(), router.Config{
				Backends:       []string{primary.URL},
				CanaryBackends: []string{canary.URL},
				Candidate:      m.Fingerprint(),
				CanaryPercent:  100,
				ProbeEvery:     10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			routed := httptest.NewServer(rt.Routes())
			t.Cleanup(routed.Close)

			samples := detectMix(t, waitShardReady(t, svc, "east"))
			bodies := [][]pmuoutage.Sample{samples}
			for _, s := range samples {
				bodies = append(bodies, []pmuoutage.Sample{s})
			}
			outages, requests := 0, 0
			for i, batch := range bodies {
				js, err := json.Marshal(api.DetectRequest{Shard: "east", Samples: batch})
				if err != nil {
					t.Fatal(err)
				}
				bin := encodeFrames(t, batch)
				wantStatus, want := post(t, primary.URL, "/v1/detect", "application/json", js)
				if wantStatus != http.StatusOK {
					t.Fatalf("body %d: JSON detect HTTP %d: %s", i, wantStatus, want)
				}
				for _, c := range []struct {
					name, base, target, contentType string
					body                            []byte
				}{
					{"binary to the backend", primary.URL, "/v1/detect?shard=east", api.FrameContentType, bin},
					{"JSON through the router", routed.URL, "/v1/detect", "application/json", js},
					{"binary through the router", routed.URL, "/v1/detect?shard=east", api.FrameContentType, bin},
				} {
					status, got := post(t, c.base, c.target, c.contentType, c.body)
					if status != http.StatusOK || !bytes.Equal(got, want) {
						t.Fatalf("body %d, %s: HTTP %d\n got  %s\n want %s", i, c.name, status, got, want)
					}
				}
				requests += 2
				var resp api.DetectResponse
				if err := json.Unmarshal(want, &resp); err != nil {
					t.Fatal(err)
				}
				if len(resp.Reports) != len(batch) {
					t.Fatalf("body %d: %d reports for %d samples", i, len(resp.Reports), len(batch))
				}
				for _, r := range resp.Reports {
					if r.Outage {
						outages++
					}
				}
			}
			if outages == 0 {
				t.Fatal("no sample was reported as an outage; the equivalence check is vacuous")
			}
			rt.Differ().DrainShadow()
			rep := rt.Differ().Report()
			if rep.Pairs != uint64(requests) || rep.Identical != rep.Pairs || rep.CanaryErrors != 0 || rep.PrimaryErrors != 0 {
				t.Fatalf("canary report: pairs %d (want %d), identical %d, canary errors %d, primary errors %d",
					rep.Pairs, requests, rep.Identical, rep.CanaryErrors, rep.PrimaryErrors)
			}
		})
	}
}

// TestBinaryDetectDecodeAllocs: decoding a binary detect body allocates
// only the samples' own storage — the sample slice, one phasor slab per
// sample and one index slice per sample with a missing bus — and
// nothing for the decode itself.
func TestBinaryDetectDecodeAllocs(t *testing.T) {
	_, normal := dataPlane(t)
	dark := normal.WithMissing(2, 5)
	for _, c := range []struct {
		name    string
		samples []pmuoutage.Sample
		want    float64
	}{
		{"one complete", []pmuoutage.Sample{normal}, 2},
		{"one masked", []pmuoutage.Sample{dark}, 3},
		{"three, one masked", []pmuoutage.Sample{normal, dark, normal}, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			// A buffer and frame of the test's own stand in for the
			// pooled ones: the race detector makes sync.Pool drop items
			// at random, so a count through the pools would vary.
			buf, f := &wire.Buffer{B: encodeFrames(t, c.samples)}, new(wire.Frame)
			var got []pmuoutage.Sample
			var err error
			allocs := testing.AllocsPerRun(100, func() {
				fr := frameReader{buf: buf, f: f}
				got, err = fr.samples()
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.samples) {
				t.Fatalf("decoded %d samples, want %d", len(got), len(c.samples))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], c.samples[i]) {
					t.Fatalf("sample %d decoded as %v, want %v", i, got[i], c.samples[i])
				}
			}
			if allocs != c.want {
				t.Fatalf("decode allocates %v times, want %v", allocs, c.want)
			}
		})
	}
}

// TestOversizedFrameBodyRejected: a binary detect body past
// api.MaxBodyBytes is refused with 413 too_large, as a JSON body is.
func TestOversizedFrameBodyRejected(t *testing.T) {
	svc, err := service.New(context.Background(), service.Config{Shards: []service.ShardSpec{{Name: "east", Opts: trainOpts(3)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := httptest.NewRequest(http.MethodPost, "/v1/detect?shard=east", io.LimitReader(spaces{}, api.MaxBodyBytes+1))
	req.Header.Set("Content-Type", api.FrameContentType)
	rec := httptest.NewRecorder()
	New(svc, time.Second, nil).Routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", rec.Code, rec.Body.Bytes())
	}
	if env, ok := api.DecodeError(rec.Body.Bytes()); !ok || env.Code != api.CodeTooLarge {
		t.Fatalf("error envelope = %+v (decoded %v), want code too_large", env, ok)
	}
}
