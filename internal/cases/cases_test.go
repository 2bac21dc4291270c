package cases

import (
	"math"
	"reflect"
	"testing"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/powerflow"
)

// paperGrids loads the paper's evaluation set, in PaperNames order.
func paperGrids(t *testing.T) []*grid.Grid {
	t.Helper()
	var gs []*grid.Grid
	for _, name := range PaperNames() {
		g, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

func TestAllCasesValidate(t *testing.T) {
	for _, g := range paperGrids(t) {
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
	var names []string
	for _, g := range paperGrids(t) {
		w := want[g.Name]
		if g.N() != w.buses || g.E() != w.lines {
			t.Errorf("%s: %d buses / %d lines, want %d / %d", g.Name, g.N(), g.E(), w.buses, w.lines)
		}
		names = append(names, g.Name)
	}
	if want := []string{"ieee14", "ieee30", "ieee57", "ieee118"}; !reflect.DeepEqual(names, want) {
		t.Errorf("PaperNames() loads %v, want %v in order", names, want)
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

// TestLoadReturnsIndependentCopies: every case builds once per process
// and Load hands out clones, so a change to one copy must not reach the
// next Load.
func TestLoadReturnsIndependentCopies(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			if name == "synth1000" && (raceEnabled || testing.Short()) {
				t.Skip("1000-bus build skipped as in TestSynth1000")
			}
			g, err := Load(name)
			if err != nil {
				t.Fatal(err)
			}
			want := g.Clone()
			g.Buses[0].Vm = 99
			g.Branches[0].X = 99
			g.Name = "changed"
			again, err := Load(name)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, want) {
				t.Fatalf("Load(%q) handed out a grid shared with an earlier caller", name)
			}
		})
	}
}

// TestLoadCachesBuild: a repeated Load of ieee118 only clones the
// process's one build (the Grid, its buses and its branches), so no
// feasibility power flow runs again.
func TestLoadCachesBuild(t *testing.T) {
	if _, err := Load("ieee118"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Load("ieee118"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Fatalf("repeated Load(\"ieee118\") made %v allocations, want the clone's 3", allocs)
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

// TestSyntheticDeterministic builds ieee57 twice through Synthetic, as
// the case cache holds one build per process, and checks that the
// cached ieee118 equals a fresh build.
func TestSyntheticDeterministic(t *testing.T) {
	a, err := Synthetic(ieee57Config)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(ieee57Config)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two ieee57 builds differ")
	}
	fresh, err := Synthetic(ieee118Config)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(IEEE118(), fresh) {
		t.Fatal("IEEE118() differs from a fresh Synthetic build")
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
	for _, g := range paperGrids(t) {
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
