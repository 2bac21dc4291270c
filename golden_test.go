package pmuoutage

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// goldenOptions are the grids the goldens below pin: ieee30 at the
// benchmark's training options, and ieee118 on a shorter window so the
// race-instrumented suite stays bounded.
var goldenOptions = []Options{
	{Case: "ieee30", UseDC: true, Workers: 2},
	{Case: "ieee118", TrainSteps: 12, UseDC: true, Workers: 2},
}

// goldenModels trains each golden grid once per test binary: both
// goldens read the same model, and ieee118 training dominates the
// package's race-instrumented run time.
var goldenModels sync.Map // case name -> func() (*Model, error)

func goldenModel(t *testing.T, opts Options) *Model {
	t.Helper()
	train, _ := goldenModels.LoadOrStore(opts.Case, sync.OnceValues(func() (*Model, error) {
		return TrainModel(opts)
	}))
	m, err := train.(func() (*Model, error))()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestModelGoldenFingerprint pins the fingerprint of a facade-trained
// model over the whole pipeline: DC data generation, clustering and
// detector training. The hashes were captured when format version 3
// dropped the node union bases, node line lists and capability matrix;
// every table it kept encodes byte for byte as under version 2.
func TestModelGoldenFingerprint(t *testing.T) {
	want := map[string]string{
		"ieee30":  "d24a8dfae22ed78879510ffe65101f7371474362a1f3366f8bfc64b5af48a4a8",
		"ieee118": "ad1e047bc86abfc768a9f37db2b48786f6a433e85e6f227291bcfa718aafdb43",
	}
	for _, opts := range goldenOptions {
		t.Run(opts.Case, func(t *testing.T) {
			if got := goldenModel(t, opts).Fingerprint(); got != want[opts.Case] {
				t.Errorf("%s model fingerprint %s, want %s", opts.Case, got, want[opts.Case])
			}
		})
	}
}

// TestDetectGoldenFingerprint pins facade Detect output on the grids the
// benchmark scores: one hash per grid over the report JSON of every
// valid line's first outage sample and a run of normal samples, each
// scored complete, under a DrawMissing(0.9, seed) mask, and with each
// PDC cluster dark. The hashes were captured before each PDC cluster's
// subspaces were scored once per sample.
func TestDetectGoldenFingerprint(t *testing.T) {
	want := map[string]string{
		"ieee30":  "5fa860a7644f5d5263d549b121825743ed40867e28c336d313850281dd906e10",
		"ieee118": "6ae18b25b22c00fb3f6a1fd643178299b6edef7a137a8332108ec7b6dfefa8a2",
	}
	for _, opts := range goldenOptions {
		t.Run(opts.Case, func(t *testing.T) {
			sys, err := NewSystemFromModel(goldenModel(t, opts))
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
				variants := []Sample{s, s.WithMissing(miss...)}
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
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[opts.Case] {
				t.Errorf("%s detection fingerprint %s, want %s", opts.Case, got, want[opts.Case])
			}
		})
	}
}
