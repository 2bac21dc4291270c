package cases

import (
	"math"
	"reflect"
	"testing"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/powerflow"
)

func TestAllCasesValidate(t *testing.T) {
	for _, g := range All() {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestPaperLineCounts(t *testing.T) {
	// §V: "These systems have 20, 41, 80, and 186 power lines".
	want := map[string]struct{ buses, lines int }{
		"ieee14":  {14, 20},
		"ieee30":  {30, 41},
		"ieee57":  {57, 80},
		"ieee118": {118, 186},
	}
	for _, g := range All() {
		w := want[g.Name]
		if g.N() != w.buses || g.E() != w.lines {
			t.Errorf("%s: %d buses / %d lines, want %d / %d", g.Name, g.N(), g.E(), w.buses, w.lines)
		}
	}
}

func TestSyntheticSameSeedDeepEqual(t *testing.T) {
	cfg := SynthConfig{
		Name: "det", Buses: 20, Branches: 28,
		Regions: 3, Gens: 4, LoadMW: 400, Seed: 7,
	}
	a, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identically-seeded synthetic grids differ; builder must not touch global rand")
	}
	c, err := Synthetic(SynthConfig{
		Name: "det", Buses: 20, Branches: 28,
		Regions: 3, Gens: 4, LoadMW: 400, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Branches, c.Branches) {
		t.Fatal("different seeds produced identical topologies; seed is not reaching the builder")
	}
}

func TestLoadRegistry(t *testing.T) {
	for _, name := range Names() {
		if raceEnabled && name == "synth1000" {
			// About ten seconds under race instrumentation; synth300
			// exercises the same builder and sparse power flow, and
			// TestSynth1000 and the scale row of `make smoke` cover the
			// 1000-bus grid uninstrumented.
			continue
		}
		g, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name != name {
			t.Errorf("Load(%q).Name = %q", name, g.Name)
		}
	}
	if _, err := Load("nope"); err == nil {
		t.Fatal("expected error for unknown case")
	}
}

func TestIEEE14SolvesNearPublishedVoltages(t *testing.T) {
	g := IEEE14()
	sol, err := powerflow.SolveAC(g, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	// The embedded Vm/Va are the published solved values; a correct
	// solver must land close to them (generator Q limits are ignored,
	// so allow a modest tolerance).
	for i := range g.Buses {
		if dv := math.Abs(sol.Vm[i] - g.Buses[i].Vm); dv > 0.02 {
			t.Errorf("bus %d Vm=%.4f, published %.4f", i+1, sol.Vm[i], g.Buses[i].Vm)
		}
		if da := math.Abs(sol.Va[i] - g.Buses[i].Va); da > 0.02 {
			t.Errorf("bus %d Va=%.4f rad, published %.4f", i+1, sol.Va[i], g.Buses[i].Va)
		}
	}
}

func TestIEEE30SolvesNearPublishedVoltages(t *testing.T) {
	g := IEEE30()
	sol, err := powerflow.SolveAC(g, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Buses {
		if dv := math.Abs(sol.Vm[i] - g.Buses[i].Vm); dv > 0.02 {
			t.Errorf("bus %d Vm=%.4f, published %.4f", i+1, sol.Vm[i], g.Buses[i].Vm)
		}
		if da := math.Abs(sol.Va[i] - g.Buses[i].Va); da > 0.025 {
			t.Errorf("bus %d Va=%.4f rad, published %.4f", i+1, sol.Va[i], g.Buses[i].Va)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := IEEE57()
	b := IEEE57()
	if a.N() != b.N() || a.E() != b.E() {
		t.Fatal("synthetic build not deterministic in size")
	}
	for e := range a.Branches {
		if a.Branches[e] != b.Branches[e] {
			t.Fatalf("branch %d differs between identical builds", e)
		}
	}
	for i := range a.Buses {
		if a.Buses[i] != b.Buses[i] {
			t.Fatalf("bus %d differs between identical builds", i)
		}
	}
}

func TestSyntheticSolvable(t *testing.T) {
	for _, g := range []*grid.Grid{IEEE57(), IEEE118()} {
		sol, err := powerflow.SolveAC(g, powerflow.Options{})
		if err != nil {
			t.Errorf("%s: %v", g.Name, err)
			continue
		}
		for i, vm := range sol.Vm {
			if vm < 0.8 || vm > 1.2 {
				t.Errorf("%s bus %d: implausible Vm %.3f", g.Name, i, vm)
			}
		}
	}
}

func TestSyntheticRejectsBadConfig(t *testing.T) {
	if _, err := Synthetic(SynthConfig{Name: "x", Buses: 10, Branches: 5}); err == nil {
		t.Fatal("expected error: too few branches to connect")
	}
	if _, err := Synthetic(SynthConfig{Name: "x", Buses: 4, Branches: 10}); err == nil {
		t.Fatal("expected error: exceeds simple-graph limit")
	}
}

func TestSyntheticCustomConfig(t *testing.T) {
	g, err := Synthetic(SynthConfig{
		Name: "mini", Buses: 12, Branches: 18, Regions: 2, Gens: 2,
		LoadMW: 150, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 || g.E() != 18 {
		t.Fatalf("got %d buses / %d branches", g.N(), g.E())
	}
}

func TestMostSingleLineOutagesKeepConnectivity(t *testing.T) {
	// The evaluation needs a healthy population of valid outage cases
	// (E <= |E| in the paper). Require that well over half of single-line
	// removals keep each system connected.
	for _, g := range All() {
		ok := 0
		for e := 0; e < g.E(); e++ {
			if g.ConnectedWithout(grid.Line(e)) {
				ok++
			}
		}
		if ok*2 < g.E() {
			t.Errorf("%s: only %d/%d single-line outages keep connectivity", g.Name, ok, g.E())
		}
	}
}
