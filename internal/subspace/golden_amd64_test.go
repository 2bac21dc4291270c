package subspace_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"pmuoutage"
	"pmuoutage/internal/subspace"
)

// TestDetectGoldenWithoutAVX runs the root package's
// TestDetectGoldenFingerprint on the path of an amd64 CPU without AVX,
// the Go loops, against the same pinned hashes: training and facade
// Detect on ieee30 and ieee118, each valid line's first outage sample
// and a run of normal samples, complete, under a DrawMissing(0.9, seed)
// mask and with each PDC cluster dark.
func TestDetectGoldenWithoutAVX(t *testing.T) {
	defer subspace.SetAVX(subspace.SetAVX(false))
	for _, tc := range []struct {
		opts pmuoutage.Options
		want string
	}{
		{pmuoutage.Options{Case: "ieee30", UseDC: true, Workers: 2},
			"5fa860a7644f5d5263d549b121825743ed40867e28c336d313850281dd906e10"},
		{pmuoutage.Options{Case: "ieee118", TrainSteps: 12, UseDC: true, Workers: 2},
			"6ae18b25b22c00fb3f6a1fd643178299b6edef7a137a8332108ec7b6dfefa8a2"},
	} {
		t.Run(tc.opts.Case, func(t *testing.T) {
			sys, err := pmuoutage.NewSystem(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			samples, err := sys.SimulateOutage(nil, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range sys.ValidLines() {
				s, err := sys.SimulateOutage([]int{e}, 1)
				if err != nil {
					t.Fatal(err)
				}
				samples = append(samples, s[0])
			}
			h := sha256.New()
			for k, s := range samples {
				miss, err := sys.DrawMissing(0.9, int64(k+1))
				if err != nil {
					t.Fatal(err)
				}
				variants := []pmuoutage.Sample{s, s.WithMissing(miss...)}
				for _, c := range sys.Clusters() {
					variants = append(variants, s.WithMissing(c...))
				}
				for _, v := range variants {
					r, err := sys.Detect(v)
					if err != nil {
						t.Fatal(err)
					}
					b, err := json.Marshal(r)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(b)
				}
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
				t.Errorf("%s detection fingerprint without AVX %s, want %s", tc.opts.Case, got, tc.want)
			}
		})
	}
}
