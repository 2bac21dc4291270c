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
	"pmuoutage/internal/pmunet"
)

// TestDecodeStagesUnderMissingOutageData breaks the Fig. 7 scenario into
// pipeline stages so a regression points at the failing stage: the
// outage gate, the proximity-rule candidate set, or the line filter.
func TestDecodeStagesUnderMissingOutageData(t *testing.T) {
	g := cases.IEEE14()
	train, _ := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 30, Seed: 11})
	nw, _ := pmunet.Build(g, 3)
	det, err := TrainContext(context.Background(), train, nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	test, _ := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 5, Seed: 999})
	var nSamp, gate, bothEnds, hit, hitGivenEnds int
	for _, e := range test.ValidLines {
		a, b := g.Endpoints(e)
		for _, smp := range test.OutageSet(e).Samples {
			s := smp.WithMask(nw.OutageLocationMask(e))
			r, err := det.Detect(s)
			if err != nil {
				t.Fatal(err)
			}
			nSamp++
			if !r.Outage {
				continue
			}
			gate++
			hasA, hasB := false, false
			for _, c := range r.Candidates {
				if c == a {
					hasA = true
				}
				if c == b {
					hasB = true
				}
			}
			found := false
			for _, l := range r.Lines {
				if l == e {
					found = true
				}
			}
			if hasA && hasB {
				bothEnds++
				if found {
					hitGivenEnds++
				}
			}
			if found {
				hit++
			}
		}
	}
	t.Logf("samples=%d gate-pass=%d both-endpoints-in-candidates=%d hit=%d hit|ends=%d",
		nSamp, gate, bothEnds, hit, hitGivenEnds)
	if float64(gate) < 0.85*float64(nSamp) {
		t.Errorf("gate passed only %d/%d masked outage samples", gate, nSamp)
	}
	if float64(hit) < 0.6*float64(nSamp) {
		t.Errorf("true line decoded in only %d/%d masked outage samples", hit, nSamp)
	}
}

// TestDecodeLinesMatchesScan checks the line decoder, which gathers
// lines from the candidates' per-node lists, against a scan of every
// valid line in validLines order: random candidate sets on ieee14 and
// ieee30, proximities drawn from a few values so that ties (which the
// stable sort breaks by validLines order) are common, some clusters
// that cannot be scored, and random MaxLines and LineKeepFactor.
func TestDecodeLinesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range []string{"ieee14", "ieee30"} {
		d, nw := gridFixture(t, name)
		det, err := TrainContext(context.Background(), d, nw, Config{})
		if err != nil {
			t.Fatal(err)
		}
		n := det.g.N()
		for trial := 0; trial < 500; trial++ {
			det.cfg.MaxLines = 1 + rng.Intn(5)
			det.cfg.LineKeepFactor = 1 + 3*rng.Float64()
			clusters := make([]clusterScore, len(det.plans))
			for c := range clusters {
				cs := &clusters[c]
				cs.clusterPlan = &clusterPlan{}
				if rng.Intn(8) > 0 {
					cs.group = []int{0}
				}
				cs.xe = []float64{1, 2, 0.5}[rng.Intn(3)]
				cs.lineProx = make([]float64, len(det.clusterLines[c]))
				for k := range cs.lineProx {
					cs.lineProx[k] = float64(rng.Intn(4))
				}
			}
			var cand []int
			for i := 0; i < n; i++ {
				if rng.Intn(5) == 0 {
					cand = append(cand, i)
				}
			}
			if got, want := det.decodeLines(cand, clusters), scanDecodeLines(det, cand, clusters); !slices.Equal(got, want) {
				t.Fatalf("%s: candidates %v: lines %v, scan gives %v", name, cand, got, want)
			}
		}
	}
}

// scanDecodeLines is the line decoder as a scan of every valid line,
// keeping those with a candidate endpoint whose from-bus cluster can be
// scored, in validLines order, then the stable sort by proximity and
// the LineKeepFactor and MaxLines cuts.
func scanDecodeLines(det *Detector, cand []int, clusters []clusterScore) []grid.Line {
	type scored struct {
		e grid.Line
		p float64
	}
	var ls []scored
	for k, e := range det.validLines {
		a, b := det.g.Endpoints(e)
		if !slices.Contains(cand, a) && !slices.Contains(cand, b) {
			continue
		}
		cs := &clusters[det.nw.ClusterOf(a)]
		if len(cs.group) == 0 {
			continue
		}
		ls = append(ls, scored{e, cs.lineProx[det.fromSlot[k]] / cs.xe})
	}
	if len(ls) == 0 {
		return nil
	}
	slices.SortStableFunc(ls, func(a, b scored) int { return cmpLess(a.p, b.p) })
	best := max(ls[0].p, math.SmallestNonzeroFloat64)
	var out []grid.Line
	for _, s := range ls {
		if len(out) >= det.cfg.MaxLines {
			break
		}
		if s.p <= best*det.cfg.LineKeepFactor {
			out = append(out, s.e)
		}
	}
	slices.Sort(out)
	return out
}
