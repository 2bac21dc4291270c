package detect

import (
	"context"
	"sort"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/mat"
	"pmuoutage/internal/pmunet"
)

// TestLineSignatureDiscrimination asserts the core mechanism the decoder
// relies on: with the outage endpoints masked, the true line's subspace
// still ranks among the closest few when scored over all available rows.
func TestLineSignatureDiscrimination(t *testing.T) {
	g := cases.IEEE14()
	train, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	nw, _ := pmunet.Build(g, 3)
	det, err := TrainContext(context.Background(), train, nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	test, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 5, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	top1, top3, n := 0, 0, 0
	for _, e := range test.ValidLines {
		for _, smp := range test.OutageSet(e).Samples {
			s := smp.WithMask(nw.OutageLocationMask(e))
			dev, featMask := det.deviation(s)
			var avail []int
			for i := range dev {
				if !featMask[i] {
					avail = append(avail, i)
				}
			}
			xd := make([]float64, len(avail))
			for k, i := range avail {
				xd[k] = dev[i]
			}
			normal, err := det.normalSub.Restrict(avail)
			if err != nil {
				t.Fatal(err)
			}
			r0, res := make([]float64, len(avail)), make([]float64, len(avail))
			if err := normal.ResidualTo(r0, xd); err != nil {
				t.Fatal(err)
			}
			type ls struct {
				e grid.Line
				p float64
			}
			var scores []ls
			for k, f := range det.validLines {
				r, err := det.lineSubs[k].Restrict(avail)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.ResidualTo(res, r0); err != nil {
					t.Fatal(err)
				}
				scores = append(scores, ls{f, mat.Norm2(res)})
			}
			sort.Slice(scores, func(a, b int) bool { return scores[a].p < scores[b].p })
			n++
			if scores[0].e == e {
				top1++
			}
			for _, sc := range scores[:3] {
				if sc.e == e {
					top3++
				}
			}
		}
	}
	t1 := float64(top1) / float64(n)
	t3 := float64(top3) / float64(n)
	t.Logf("masked-endpoint line discrimination: top1=%.3f top3=%.3f (n=%d)", t1, t3, n)
	if t1 < 0.6 {
		t.Errorf("top-1 discrimination %.3f, want >= 0.6", t1)
	}
	if t3 < 0.75 {
		t.Errorf("top-3 discrimination %.3f, want >= 0.75", t3)
	}
}

// TestScoredNodesMatchOutageLocation asserts the proximity rule's input:
// for a complete-data outage sample, the two endpoint nodes carry the
// two lowest scaled proximities most of the time.
func TestScoredNodesMatchOutageLocation(t *testing.T) {
	g := cases.IEEE14()
	train, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	nw, _ := pmunet.Build(g, 3)
	det, err := TrainContext(context.Background(), train, nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	test, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 4, Seed: 321})
	if err != nil {
		t.Fatal(err)
	}
	good, n := 0, 0
	for _, e := range test.ValidLines {
		a, b := g.Endpoints(e)
		for _, s := range test.OutageSet(e).Samples {
			r, err := det.Detect(s)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Outage {
				continue
			}
			order := make([]int, len(r.NodeScores))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(x, y int) bool { return r.NodeScores[order[x]] < r.NodeScores[order[y]] })
			n++
			hits := 0
			for _, top := range order[:3] {
				if top == a || top == b {
					hits++
				}
			}
			if hits >= 1 {
				good++
			}
		}
	}
	frac := float64(good) / float64(n)
	t.Logf("endpoint in top-3 node scores: %.3f (n=%d)", frac, n)
	if frac < 0.85 {
		t.Errorf("endpoint ranking %.3f, want >= 0.85", frac)
	}
}
