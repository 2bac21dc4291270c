package detect

import (
	"context"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/pmunet"
)

// gridFixture generates the named grid's data (DC, 20 steps, seed 1)
// and its network of max(3, N/10) PDC clusters: the training set of
// BenchmarkDetectSingleSample, the allocation ceilings and the ablation
// golden.
func gridFixture(t *testing.T, name string) (*dataset.Data, *pmunet.Network) {
	t.Helper()
	g, err := cases.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := pmunet.Build(g, max(3, g.N()/10))
	if err != nil {
		t.Fatal(err)
	}
	return d, nw
}

// TestDetectAllocsCeiling bounds the allocations of one outage Detect
// on BenchmarkDetectSingleSample's fixture (DC, 20 steps, seed 1,
// max(3, N/10) PDC clusters, the first valid line's first sample that
// trips the energy gate), complete and with that line's from-bus dark.
// The complete ceilings are a fifth of what each cost while every
// subspace residual allocated its own vectors: 384 allocations on
// ieee30 and 1,427 on ieee118. The masked sample allocates no more than
// the complete one: the gate reads the sample's own mask and gathers
// the available features into the deviation's allocation, and
// AllocsPerRun's warm-up call fills the dark bus's gate and plan slots,
// so the timed calls restrict nothing.
func TestDetectAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	for _, tc := range []struct {
		name    string
		ceiling float64
	}{{"ieee30", 76}, {"ieee118", 285}} {
		t.Run(tc.name, func(t *testing.T) {
			d, nw := gridFixture(t, tc.name)
			g := d.G
			det, err := TrainContext(context.Background(), d, nw, Config{})
			if err != nil {
				t.Fatal(err)
			}
			var outage, masked *dataset.Sample
			for _, e := range d.ValidLines {
				s := d.Outages[e].Samples[0]
				if r, err := det.Detect(s); err == nil && r.Outage {
					from, _ := g.Endpoints(e)
					dark := pmunet.NoneMissing(g.N())
					dark[from] = true
					m := s.WithMask(dark)
					outage, masked = &s, &m
					break
				}
			}
			if outage == nil {
				t.Fatal("no valid line's first sample trips the energy gate")
			}
			allocs := func(s *dataset.Sample) float64 {
				return testing.AllocsPerRun(20, func() {
					if _, err := det.Detect(*s); err != nil {
						t.Fatal(err)
					}
				})
			}
			complete := allocs(outage)
			t.Logf("%s outage Detect: %.0f allocations (ceiling %.0f)", tc.name, complete, tc.ceiling)
			if complete > tc.ceiling {
				t.Errorf("%s outage Detect allocates %.0f times, ceiling %.0f", tc.name, complete, tc.ceiling)
			}
			dark := allocs(masked)
			t.Logf("%s masked outage Detect: %.0f allocations (ceiling %.0f)", tc.name, dark, complete)
			if dark > complete {
				t.Errorf("%s masked outage Detect allocates %.0f times, ceiling %.0f", tc.name, dark, complete)
			}
		})
	}
}
