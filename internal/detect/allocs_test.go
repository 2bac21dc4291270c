package detect

import (
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
	d, err := dataset.Generate(g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true})
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
// The ceilings are a fifth of what each cost before: 384 allocations on
// ieee30 and 1,427 on ieee118 complete, while every subspace residual
// allocated its own vectors, and 1,443 and 5,606 masked, while each
// rebuilt plan restricted every line and S_i^∩ on its own through a
// Jacobi SVD.
func TestDetectAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	for _, tc := range []struct {
		name           string
		outage, masked float64
	}{{"ieee30", 76, 288}, {"ieee118", 285, 1121}} {
		t.Run(tc.name, func(t *testing.T) {
			d, nw := gridFixture(t, tc.name)
			g := d.G
			det, err := Train(d, nw, Config{})
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
			for _, c := range []struct {
				kind    string
				sample  *dataset.Sample
				ceiling float64
			}{{"outage", outage, tc.outage}, {"masked outage", masked, tc.masked}} {
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := det.Detect(*c.sample); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s %s Detect: %.0f allocations (ceiling %.0f)", tc.name, c.kind, allocs, c.ceiling)
				if allocs > c.ceiling {
					t.Errorf("%s %s Detect allocates %.0f times, ceiling %.0f", tc.name, c.kind, allocs, c.ceiling)
				}
			}
		})
	}
}
