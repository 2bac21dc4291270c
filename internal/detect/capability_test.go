package detect

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/pmunet"
)

func TestUnionProbFormsAgree(t *testing.T) {
	// Inclusion–exclusion must equal the closed product form for
	// independent events — the identity behind Eq. (7).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = rng.Float64()
		}
		return math.Abs(UnionProbIE(ps)-UnionProb(ps)) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionProbEdgeCases(t *testing.T) {
	if UnionProb(nil) != 0 || UnionProbIE(nil) != 0 {
		t.Fatal("empty union must be 0")
	}
	if UnionProb([]float64{1, 0.2}) != 1 {
		t.Fatal("certain event must dominate")
	}
	if got := UnionProb([]float64{0.5, 0.5}); math.Abs(got-0.75) > 1e-15 {
		t.Fatalf("UnionProb = %v, want 0.75", got)
	}
	// Out-of-range inputs clamp.
	if got := UnionProb([]float64{2, -1}); got != 1 {
		t.Fatalf("clamped UnionProb = %v", got)
	}
	// Large n falls back to the product form without exploding.
	big := make([]float64, 30)
	for i := range big {
		big[i] = 0.01
	}
	if got := UnionProbIE(big); math.Abs(got-UnionProb(big)) > 1e-12 {
		t.Fatalf("large-n fallback mismatch: %v", got)
	}
}

func TestUnionProbMonotone(t *testing.T) {
	// Adding an event can only increase the union probability.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = rng.Float64()
		}
		return UnionProb(append(ps, rng.Float64())) >= UnionProb(ps)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func ieee14Data(t *testing.T, steps int) *dataset.Data {
	t.Helper()
	g := cases.IEEE14()
	d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: steps, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFitEllipsesAllNodes(t *testing.T) {
	d := ieee14Data(t, 10)
	ells, err := fitEllipses(context.Background(), d.Normal, 1.1, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ells) != 14 {
		t.Fatalf("got %d ellipses", len(ells))
	}
	// Every normal training point must be inside its own ellipse.
	for k, e := range ells {
		for _, s := range d.Normal.Samples {
			vm, va := s.Phasor2D(k)
			if !e.Contains(vm, va) {
				t.Fatalf("node %d: training point outside ellipse", k)
			}
		}
	}
}

func TestFitEllipsesNeedsSamples(t *testing.T) {
	if _, err := fitEllipses(context.Background(), &dataset.Set{}, 1.1, false, 1); err == nil {
		t.Fatal("expected error for empty set")
	}
}

func TestCaseCapabilityEndpointsHigh(t *testing.T) {
	// For an outage of line e, the endpoint nodes must detect it far
	// better than a node with no electrical stress... in a small grid
	// nearly everyone sees it, so assert endpoints are near 1.
	d := ieee14Data(t, 12)
	ells, err := fitEllipses(context.Background(), d.Normal, 1.1, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a line whose endpoints are both PQ buses: generator buses
	// hold their voltage by definition and are weak self-detectors.
	for _, e := range d.ValidLines {
		a, b := d.G.Endpoints(e)
		if d.G.Buses[a].Type != grid.PQ || d.G.Buses[b].Type != grid.PQ {
			continue
		}
		pa := CaseCapability(ells[a], d.Outages[e], d.Normal, a)
		pb := CaseCapability(ells[b], d.Outages[e], d.Normal, b)
		if pa < 0.9 || pb < 0.9 {
			t.Errorf("line %d endpoint capabilities %.2f/%.2f, want ~1", e, pa, pb)
		}
		return
	}
	t.Skip("no PQ-PQ line in valid cases")
}

func TestCaseCapabilityEmptySets(t *testing.T) {
	d := ieee14Data(t, 4)
	ells, _ := fitEllipses(context.Background(), d.Normal, 1.1, false, 1)
	if CaseCapability(ells[0], &dataset.Set{}, d.Normal, 0) != 0 {
		t.Fatal("empty outage set must give 0")
	}
	if CaseCapability(ells[0], d.Outages[d.ValidLines[0]], &dataset.Set{}, 0) != 0 {
		t.Fatal("empty normal set must give 0")
	}
}

// TestLearnCapabilitiesShapeAndRange checks that Eq. 6–7's
// capabilities form an N×N matrix with every entry in [0, 1], on each
// grid's DC data and on ieee14's AC data.
func TestLearnCapabilitiesShapeAndRange(t *testing.T) {
	inputs := []struct {
		name string
		data func(t *testing.T) *dataset.Data
	}{
		{"ieee14-ac", func(t *testing.T) *dataset.Data { return ieee14Data(t, 10) }},
		{"ieee14", dcData(cases.IEEE14)},
		{"ieee30", dcData(cases.IEEE30)},
		{"ieee57", dcData(cases.IEEE57)},
		{"ieee118", dcData(cases.IEEE118)},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			d := in.data(t)
			caps, err := learnCapabilities(context.Background(), d, 1.1, false, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := d.G.N()
			if len(caps.P) != n || len(caps.Ellipses) != n {
				t.Fatal("capability matrix shape wrong")
			}
			for i := 0; i < n; i++ {
				if len(caps.P[i]) != n {
					t.Fatalf("row %d has %d entries", i, len(caps.P[i]))
				}
				for k := 0; k < n; k++ {
					if caps.P[i][k] < 0 || caps.P[i][k] > 1 {
						t.Fatalf("P[%d][%d] = %v out of [0,1]", i, k, caps.P[i][k])
					}
				}
			}
		})
	}
}

// dcData generates 10 steps of DC data on the grid, seed 7.
func dcData(build func() *grid.Grid) func(t *testing.T) *dataset.Data {
	return func(t *testing.T) *dataset.Data {
		t.Helper()
		d, err := dataset.GenerateContext(context.Background(), build(), dataset.GenConfig{Steps: 10, Seed: 7, UseDC: true})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
}

// TestCapabilityMatrixFromModel: the Eq. (6)–(7) matrix rebuilt from a
// decoded model's case rows, as TrainPatch rebuilds it, is bit for bit
// the one learnCapabilities builds from the training data.
func TestCapabilityMatrixFromModel(t *testing.T) {
	for _, build := range []func() *grid.Grid{cases.IEEE14, cases.IEEE30} {
		d := dcData(build)(t)
		t.Run(d.G.Name, func(t *testing.T) {
			nw, err := pmunet.Build(d.G, max(3, d.G.N()/10))
			if err != nil {
				t.Fatal(err)
			}
			det, err := TrainContext(context.Background(), d, nw, Config{})
			if err != nil {
				t.Fatal(err)
			}
			m, err := det.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			dm, err := DecodeModel(&buf)
			if err != nil {
				t.Fatal(err)
			}
			caps, err := learnCapabilities(context.Background(), d, dm.Config.EllipseMargin, dm.Config.UseMVEE, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := capabilityMatrix(incidentLines(dm.Grid, dm.ValidLines), dm.CaseCapability)
			if len(got) != len(caps.P) {
				t.Fatalf("rebuilt P has %d rows, learned P %d", len(got), len(caps.P))
			}
			for i := range got {
				for k := range got[i] {
					if math.Float64bits(got[i][k]) != math.Float64bits(caps.P[i][k]) {
						t.Fatalf("P[%d][%d]: rebuilt %v, learned %v", i, k, got[i][k], caps.P[i][k])
					}
				}
			}
		})
	}
}

func TestLearnCapabilitiesSelfDetection(t *testing.T) {
	// "Intuitively node i and its immediate neighbors should have the
	// highest detection accuracy in p_i" (§IV-B): check node i itself
	// scores highly for its own failures.
	d := ieee14Data(t, 12)
	caps, err := learnCapabilities(context.Background(), d, 1.1, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.G.N(); i++ {
		if d.G.Degree(i) == 0 || d.G.Buses[i].Type != grid.PQ {
			// Generator buses regulate their own voltage and so see
			// little local signature; the paper's intuition targets
			// monitored load nodes.
			continue
		}
		// Skip nodes none of whose lines yielded valid cases.
		hasCase := false
		for _, e := range d.ValidLines {
			a, b := d.G.Endpoints(e)
			if a == i || b == i {
				hasCase = true
			}
		}
		if !hasCase {
			continue
		}
		if caps.P[i][i] < 0.9 {
			t.Errorf("node %d self-capability %.2f, want ~1", i, caps.P[i][i])
		}
	}
}
