package detect

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/metrics"
	"pmuoutage/internal/pmunet"
)

// trainIEEE14 builds a detector on IEEE-14 with fresh train data and
// returns independent test data generated with a different seed.
func trainIEEE14(t *testing.T, cfg Config) (*Detector, *dataset.Data) {
	t.Helper()
	g := cases.IEEE14()
	train, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := pmunet.Build(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	det, err := TrainContext(context.Background(), train, nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	test, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 6, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	return det, test
}

func TestTrainValidation(t *testing.T) {
	g := cases.IEEE14()
	nw, _ := pmunet.Build(g, 3)
	if _, err := TrainContext(context.Background(), &dataset.Data{G: g, Normal: &dataset.Set{}}, nw, Config{}); err == nil {
		t.Fatal("expected error for empty normal set")
	}
	other, _ := pmunet.Build(cases.IEEE30(), 3)
	d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 3, Seed: 1, UseDC: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainContext(context.Background(), d, other, Config{}); err == nil {
		t.Fatal("expected grid mismatch error")
	}
}

func TestDetectNormalSampleIsQuiet(t *testing.T) {
	det, test := trainIEEE14(t, Config{})
	for _, s := range test.Normal.Samples {
		r, err := det.Detect(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Outage {
			t.Fatalf("normal sample flagged as outage (energy %.3g thresh %.3g)",
				r.DeviationEnergy, det.NoOutageThreshold())
		}
		if len(r.Lines) != 0 {
			t.Fatal("normal sample must yield empty line set")
		}
	}
}

// TestDetectThresholdBoundary straddles the outage/no-outage gate with
// controlled deviation energy. The S⁰-filtered residual is linear in the
// deviation from the training mean, so energy is exactly quadratic in a
// scale factor alpha, and alpha* = sqrt(thresh/E(1)) sits on the gate:
// samples just inside must stay quiet, just outside must trip it.
func TestDetectThresholdBoundary(t *testing.T) {
	det, test := trainIEEE14(t, Config{})
	base := test.OutageSet(test.ValidLines[0]).Samples[0]
	e1 := det.deviationEnergy(det.deviation(base))
	if e1 <= 0 {
		t.Fatalf("outage sample has no deviation energy (%v)", e1)
	}
	// sample(alpha) = mean + alpha*(base - mean) on the angle channel.
	mk := func(alpha float64) dataset.Sample {
		va := make([]float64, len(base.Va))
		for i := range va {
			va[i] = det.mean[i] + alpha*(base.Va[i]-det.mean[i])
		}
		return dataset.Sample{Vm: base.Vm, Va: va}
	}
	// Sanity: the quadratic scaling law the boundary construction relies on.
	if e4 := det.deviationEnergy(det.deviation(mk(2))); !metrics.NearEqual(e4, 4*e1, 1e-9) {
		t.Fatalf("energy not quadratic in scale: E(2)=%v, 4*E(1)=%v", e4, 4*e1)
	}
	alpha := math.Sqrt(det.NoOutageThreshold() / e1)
	below, err := det.Detect(mk(0.99 * alpha))
	if err != nil {
		t.Fatal(err)
	}
	if below.Outage {
		t.Fatalf("energy %.6g just below threshold %.6g flagged as outage",
			below.DeviationEnergy, det.NoOutageThreshold())
	}
	above, err := det.Detect(mk(1.01 * alpha))
	if err != nil {
		t.Fatal(err)
	}
	if !above.Outage {
		t.Fatalf("energy %.6g just above threshold %.6g not flagged",
			above.DeviationEnergy, det.NoOutageThreshold())
	}
}

func TestDetectCompleteDataIdentifiesOutages(t *testing.T) {
	det, test := trainIEEE14(t, Config{})
	var acc metrics.Accumulator
	flagged, total := 0, 0
	for _, e := range test.ValidLines {
		truth := []grid.Line{e}
		for _, s := range test.OutageSet(e).Samples {
			r, err := det.Detect(s)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if r.Outage {
				flagged++
			}
			acc.Add(truth, r.Lines)
		}
	}
	// A few lightly-loaded lines have signatures below the load-noise
	// floor — the paper's IA is not 1.0 either — but the vast majority
	// of outages must be flagged.
	if frac := float64(flagged) / float64(total); frac < 0.9 {
		t.Errorf("only %.0f%% of outage samples flagged", 100*frac)
	}
	if acc.IA() < 0.85 {
		t.Errorf("complete-data IA = %.3f, want >= 0.85", acc.IA())
	}
	if acc.FA() > 0.15 {
		t.Errorf("complete-data FA = %.3f, want <= 0.15", acc.FA())
	}
	t.Logf("complete data: %s", acc.String())
}

func TestDetectMissingOutageData(t *testing.T) {
	// Figure 7's pattern: endpoints of the outaged line are missing.
	det, test := trainIEEE14(t, Config{})
	var acc metrics.Accumulator
	for _, e := range test.ValidLines {
		truth := []grid.Line{e}
		mask := det.Network().OutageLocationMask(e)
		for _, s := range test.OutageSet(e).Samples {
			r, err := det.Detect(s.WithMask(mask))
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(truth, r.Lines)
		}
	}
	if acc.IA() < 0.6 {
		t.Errorf("missing-outage-data IA = %.3f, want >= 0.6", acc.IA())
	}
	t.Logf("missing outage data: %s", acc.String())
}

func TestDetectRandomMissingOnNormalSamples(t *testing.T) {
	// Figure 8: normal samples with random missing entries must NOT be
	// classified as outages.
	det, test := trainIEEE14(t, Config{})
	rng := rand.New(rand.NewSource(4))
	var acc metrics.Accumulator
	for _, s := range test.Normal.Samples {
		for k := 1; k <= 3; k++ {
			mask := det.Network().RandomMask(k, nil, rng)
			r, err := det.Detect(s.WithMask(mask))
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(nil, r.Lines)
		}
	}
	if acc.FA() > 0.1 {
		t.Errorf("missing-data-on-normal FA = %.3f, want ~0", acc.FA())
	}
	t.Logf("random missing on normal: %s", acc.String())
}

// TestDetectSampleSizeMismatch refuses a sample whose magnitudes,
// angles or mask do not number the grid's buses: angles one short or
// one over are refused too, not read short or past their end, and so is
// a mask of five entries (on a sample past the energy gate it used to
// panic in the detection groups) or three over (read as far as the
// buses went).
func TestDetectSampleSizeMismatch(t *testing.T) {
	det, test := trainIEEE14(t, Config{})
	var s *dataset.Sample
	for _, e := range test.ValidLines {
		if r, err := det.Detect(test.Outages[e].Samples[0]); err == nil && r.Outage {
			s = &test.Outages[e].Samples[0]
			break
		}
	}
	if s == nil {
		t.Fatal("no valid line's first sample trips the energy gate")
	}
	short, long := make(pmunet.Mask, 5), make(pmunet.Mask, det.g.N()+3)
	short[1], long[1] = true, true
	for _, bad := range []dataset.Sample{
		{Vm: []float64{1}, Va: []float64{0}},
		{Vm: s.Vm, Va: s.Va[:len(s.Va)-1]},
		{Vm: s.Vm, Va: append(slices.Clone(s.Va), 0)},
		s.WithMask(short),
		s.WithMask(long),
	} {
		if _, err := det.Detect(bad); err == nil {
			t.Fatalf("%d magnitudes, %d angles and %d mask entries: expected size mismatch error", len(bad.Vm), len(bad.Va), len(bad.Mask))
		}
	}
}

func TestDetectAccessors(t *testing.T) {
	det, _ := trainIEEE14(t, Config{})
	if det.Grid().Name != "ieee14" {
		t.Fatal("Grid accessor wrong")
	}
	if det.Network().NumClusters() != 3 {
		t.Fatal("Network accessor wrong")
	}
	if len(det.groups) != 3 {
		t.Fatal("group accessor wrong")
	}
	if len(det.ValidLines()) == 0 {
		t.Fatal("no valid lines")
	}
	if det.NoOutageThreshold() <= 0 {
		t.Fatal("threshold not calibrated")
	}
}

func TestBuildGroupsMixZeroNeedsLoadings(t *testing.T) {
	g := cases.IEEE14()
	d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 6, Seed: 2, UseDC: true})
	if err != nil {
		t.Fatal(err)
	}
	nw, _ := pmunet.Build(g, 3)
	caps, err := learnCapabilities(context.Background(), d, 1.1, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildGroups(nw, caps.P, nil, GroupConfig{Mix: 0.5}); err == nil {
		t.Fatal("expected loadings-required error")
	}
	groups, err := BuildGroups(nw, caps.P, nil, GroupConfig{Mix: 1})
	if err != nil {
		t.Fatal(err)
	}
	for c, gr := range groups {
		if len(gr.InCluster) == 0 || len(gr.OutCluster) == 0 {
			t.Fatalf("cluster %d has empty group side", c)
		}
		// Out-of-cluster members must be outside the cluster.
		in := map[int]bool{}
		for _, v := range nw.Clusters[c] {
			in[v] = true
		}
		for _, v := range gr.OutCluster {
			if in[v] {
				t.Fatalf("cluster %d: out-group member %d is inside", c, v)
			}
		}
	}
}

func TestDetectorAblationVariantsRun(t *testing.T) {
	// Regressor proximity and unscaled variants must at least run and
	// flag outages (quality is compared in the benches).
	for _, cfg := range []Config{
		{UseRegressorProximity: true},
		{DisableScaling: true},
		{UseMVEE: true},
	} {
		det, test := trainIEEE14(t, cfg)
		e := test.ValidLines[0]
		r, err := det.Detect(test.OutageSet(e).Samples[0])
		if err != nil {
			t.Fatal(err)
		}
		if !r.Outage {
			t.Error("ablation variant missed an obvious outage")
		}
	}
}

func TestDetectChannelMagnitude(t *testing.T) {
	det, test := trainIEEE14(t, Config{Channel: dataset.Magnitude})
	e := test.ValidLines[0]
	r, err := det.Detect(test.OutageSet(e).Samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if !r.Outage {
		t.Error("magnitude channel missed an obvious outage")
	}
}
