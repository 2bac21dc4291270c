package cases

import (
	"strings"
	"testing"

	"pmuoutage/internal/powerflow"
)

// TestChordGuardTrips: asking for the complete graph on 200 buses makes
// rejection sampling need ~E·ln E ≈ 197k draws — past the 100k guard —
// so the builder must refuse with an explicit error instead of looping
// forever or returning an under-connected grid.
func TestChordGuardTrips(t *testing.T) {
	maxBr := 200 * 199 / 2
	_, err := Synthetic(SynthConfig{
		Name: "dense200", Buses: 200, Branches: maxBr,
		Regions: 1, Gens: 4, LoadMW: 100, Seed: 1,
	})
	if err == nil {
		t.Fatal("complete-graph request built without tripping the chord guard")
	}
	if !strings.Contains(err.Error(), "chord guard tripped") {
		t.Fatalf("wrong error for guard trip: %v", err)
	}
}

// TestSynth300 pins the 300-bus scale grid: size, registry access,
// clone isolation, and a warm-start solve on the sparse power flow (300 ≥
// powerflow.SparseBusThreshold, so SolveAC takes the sparse LU). It runs
// under the race detector too: the build takes about a second there.
func TestSynth300(t *testing.T) {
	g := Synth300()
	if g.N() != 300 || g.E() != 475 {
		t.Fatalf("synth300: %d buses / %d branches, want 300 / 475", g.N(), g.E())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load("synth300")
	if err != nil {
		t.Fatal(err)
	}
	// The builder caches and clones; mutating one copy must not leak.
	loaded.Buses[0].Vm = 99
	if again := Synth300(); again.Buses[0].Vm == 99 {
		t.Fatal("Synth300 returned a shared grid; clones must be independent")
	}
	sol, err := powerflow.SolveAC(g, powerflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Mismatch >= 1e-8 {
		t.Fatalf("warm-start mismatch %v not below tolerance", sol.Mismatch)
	}
	for i, vm := range sol.Vm {
		if vm < 0.93 {
			t.Fatalf("bus %d voltage %.3f below the builder's 0.93 floor", i, vm)
		}
	}
}

// TestSynth1000 exercises the scaling target end to end. Skipped under
// the race detector, where the build takes about ten seconds for
// numerics TestSynth300 already covers, and under -short.
func TestSynth1000(t *testing.T) {
	if raceEnabled {
		t.Skip("skipping 1000-bus build under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping 1000-bus build in short mode")
	}
	g := Synth1000()
	if g.N() != 1000 || g.E() != 1580 {
		t.Fatalf("synth1000: %d buses / %d branches, want 1000 / 1580", g.N(), g.E())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	sol, err := powerflow.SolveAC(g, powerflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Mismatch >= 1e-8 {
		t.Fatalf("warm-start mismatch %v not below tolerance", sol.Mismatch)
	}
}
