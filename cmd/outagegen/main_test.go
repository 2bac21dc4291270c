package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
)

// TestRunWritesLoadableDataset: run writes a dataset that reads back,
// with each noise sigma on its own channel. On DC data every magnitude
// is 1 plus noise, so the spread of the normal set's magnitudes is the
// magnitude sigma, here 0.02 against an angle sigma of 1e-6: swapped
// sigmas would read about 1e-6.
func TestRunWritesLoadableDataset(t *testing.T) {
	const sigmaVm, sigmaVa = 0.02, 1e-6
	path := filepath.Join(t.TempDir(), "d.json")
	if err := run("ieee14", 8, 1, true, sigmaVm, sigmaVa, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := dataset.ReadJSON(f, cases.IEEE14())
	if err != nil {
		t.Fatal(err)
	}
	if d.Normal.T() != 8 || len(d.ValidLines) == 0 {
		t.Fatalf("dataset shape: normal %d, valid %d", d.Normal.T(), len(d.ValidLines))
	}
	var ssq float64
	var k int
	for _, s := range d.Normal.Samples {
		for _, vm := range s.Vm {
			ssq += (vm - 1) * (vm - 1)
			k++
		}
	}
	if spread := math.Sqrt(ssq / float64(k)); spread < sigmaVm/2 || spread > 2*sigmaVm {
		t.Fatalf("normal magnitudes spread %.3g about 1 over %d values, want about the magnitude sigma %g", spread, k, sigmaVm)
	}
}

func TestRunUnknownCase(t *testing.T) {
	if err := run("nope", 2, 1, true, 0, 0, ""); err == nil {
		t.Fatal("expected error")
	}
}
