package mlr

import (
	"context"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/metrics"
)

func trainData(t *testing.T, steps int, seed int64) *dataset.Data {
	t.Helper()
	g := cases.IEEE14()
	d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: steps, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTrainValidation(t *testing.T) {
	g := cases.IEEE14()
	if _, err := Train(&dataset.Data{G: g, Normal: &dataset.Set{}}, Config{}); err == nil {
		t.Fatal("expected error for empty training data")
	}
}

func TestClassifierCompleteDataAccuracy(t *testing.T) {
	// The paper's Fig. 5: with complete data, MLR is highly accurate.
	train := trainData(t, 20, 11)
	test := trainData(t, 5, 999)
	c, err := Train(train, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.classes) != len(train.ValidLines)+1 {
		t.Fatalf("classes = %d, want %d", len(c.classes), len(train.ValidLines)+1)
	}
	var acc metrics.Accumulator
	for _, e := range test.ValidLines {
		truth := []grid.Line{e}
		for _, s := range test.OutageSet(e).Samples {
			acc.Add(truth, c.Classify(s))
		}
	}
	if acc.IA() < 0.8 {
		t.Errorf("complete-data MLR IA = %.3f, want >= 0.8", acc.IA())
	}
	t.Logf("MLR complete data: %s", acc.String())
}

func TestClassifierNormalSamples(t *testing.T) {
	train := trainData(t, 40, 11)
	test := trainData(t, 5, 999)
	c, err := Train(train, Config{})
	if err != nil {
		t.Fatal(err)
	}
	right := 0
	for _, smp := range test.Normal.Samples {
		got, p := c.ClassifyWithProb(smp)
		if len(got) == 0 {
			right++
		} else {
			t.Logf("normal sample -> %v (p=%.3f)", got, p)
		}
	}
	if right < len(test.Normal.Samples)*4/5 {
		t.Errorf("normal samples misclassified: %d/%d right", right, len(test.Normal.Samples))
	}
}

func TestClassifierDegradesWithMissingOutageData(t *testing.T) {
	// The paper's central claim (Fig. 7): MLR collapses when the outage
	// endpoints' data are missing, because its per-scenario signatures
	// depend on exactly those features.
	train := trainData(t, 20, 11)
	test := trainData(t, 5, 999)
	c, err := Train(train, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var complete, missing metrics.Accumulator
	for _, e := range test.ValidLines {
		truth := []grid.Line{e}
		a, b := test.G.Endpoints(e)
		for _, s := range test.OutageSet(e).Samples {
			complete.Add(truth, c.Classify(s))
			mask := make([]bool, test.G.N())
			mask[a], mask[b] = true, true
			missing.Add(truth, c.Classify(s.WithMask(mask)))
		}
	}
	t.Logf("MLR complete: %s / missing endpoints: %s", complete.String(), missing.String())
	if missing.IA() > complete.IA()-0.15 {
		t.Errorf("MLR should degrade markedly: complete IA %.3f vs missing IA %.3f",
			complete.IA(), missing.IA())
	}
}

func TestClassifyWithProbSane(t *testing.T) {
	train := trainData(t, 10, 11)
	c, err := Train(train, Config{Epochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	_, p := c.ClassifyWithProb(train.Normal.Samples[0])
	if p <= 0 || p > 1 {
		t.Fatalf("probability %v out of range", p)
	}
}
