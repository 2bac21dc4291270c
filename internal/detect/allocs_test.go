package detect

import (
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/pmunet"
)

// TestDetectAllocsCeiling bounds the allocations of one outage Detect
// on BenchmarkDetectSingleSample's fixture (DC, 20 steps, seed 1,
// max(3, N/10) PDC clusters, the first valid line's first sample that
// trips the energy gate). The ceilings are a fifth of what one such
// sample cost while every subspace residual allocated its own vectors:
// 384 allocations on ieee30 and 1,427 on ieee118.
func TestDetectAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	for _, tc := range []struct {
		name    string
		ceiling float64
	}{{"ieee30", 76}, {"ieee118", 285}} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := cases.Load(tc.name)
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
			det, err := Train(d, nw, Config{})
			if err != nil {
				t.Fatal(err)
			}
			var outage *dataset.Sample
			for _, e := range d.ValidLines {
				s := d.Outages[e].Samples[0]
				if r, err := det.Detect(s); err == nil && r.Outage {
					outage = &s
					break
				}
			}
			if outage == nil {
				t.Fatal("no valid line's first sample trips the energy gate")
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := det.Detect(*outage); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s outage Detect: %.0f allocations (ceiling %.0f)", tc.name, allocs, tc.ceiling)
			if allocs > tc.ceiling {
				t.Errorf("%s outage Detect allocates %.0f times, ceiling %.0f", tc.name, allocs, tc.ceiling)
			}
		})
	}
}
