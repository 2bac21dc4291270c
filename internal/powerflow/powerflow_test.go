package powerflow

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"pmuoutage/internal/grid"
)

// twoBus returns the textbook two-bus system: slack feeding a load over a
// single line. It has a closed-form solution to validate against.
func twoBus(pd, qd, r, x float64) *grid.Grid {
	return &grid.Grid{
		Name: "twobus", BaseMVA: 100,
		Buses: []grid.Bus{
			{ID: 1, Type: grid.Slack, Vm: 1, Va: 0},
			{ID: 2, Type: grid.PQ, Pd: pd, Qd: qd, Vm: 1, Va: 0},
		},
		Branches: []grid.Branch{
			{From: 0, To: 1, R: r, X: x, Status: true},
		},
	}
}

func TestTwoBusAgainstClosedForm(t *testing.T) {
	pd, qd := 0.5, 0.2
	r, x := 0.02, 0.1
	g := twoBus(pd, qd, r, x)
	sol, err := SolveAC(g, Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	// Verify the power balance at bus 2 directly: S2 = V2 * conj(I2)
	// where I2 = (V2 - V1)/Z must equal -(pd + j qd).
	v1 := cmplx.Rect(sol.Vm[0], sol.Va[0])
	v2 := cmplx.Rect(sol.Vm[1], sol.Va[1])
	z := complex(r, x)
	i2 := (v2 - v1) / z
	s2 := v2 * cmplx.Conj(i2)
	if cmplx.Abs(s2-complex(-pd, -qd)) > 1e-7 {
		t.Fatalf("bus-2 injection = %v, want %v", s2, complex(-pd, -qd))
	}
	// Load bus voltage must sag below the slack's.
	if sol.Vm[1] >= sol.Vm[0] {
		t.Fatalf("load bus Vm %.4f must sag below slack %.4f", sol.Vm[1], sol.Vm[0])
	}
	if sol.Va[1] >= 0 {
		t.Fatalf("load bus angle %.4f must lag", sol.Va[1])
	}
}

func TestPowerBalanceAtEveryBus(t *testing.T) {
	// On a meshed grid, verify S_i = V_i * conj((Ybus*V)_i) matches the
	// scheduled injection at every PQ bus and the P injection at PV buses.
	g := mesh()
	sol, err := SolveAC(g, Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	v := make([]complex128, n)
	for i := range v {
		v[i] = cmplx.Rect(sol.Vm[i], sol.Va[i])
	}
	y := denseYbus(g)
	for i := 0; i < n; i++ {
		var iv complex128
		for j := range v {
			iv += y[i][j] * v[j]
		}
		s := v[i] * cmplx.Conj(iv)
		sched := complex(g.Buses[i].Pg-g.Buses[i].Pd, g.Buses[i].Qg-g.Buses[i].Qd)
		switch g.Buses[i].Type {
		case grid.PQ:
			if cmplx.Abs(s-sched) > 1e-6 {
				t.Errorf("PQ bus %d: S=%v, sched=%v", i, s, sched)
			}
		case grid.PV:
			if math.Abs(real(s)-real(sched)) > 1e-6 {
				t.Errorf("PV bus %d: P=%v, sched=%v", i, real(s), real(sched))
			}
			if math.Abs(sol.Vm[i]-g.Buses[i].Vm) > 1e-12 {
				t.Errorf("PV bus %d: Vm moved to %v", i, sol.Vm[i])
			}
		case grid.Slack:
			if sol.Vm[i] != g.Buses[i].Vm || sol.Va[i] != g.Buses[i].Va {
				t.Errorf("slack voltage moved")
			}
		}
	}
}

// mesh returns a 6-bus meshed system with a PV bus.
func mesh() *grid.Grid {
	g := &grid.Grid{
		Name: "mesh6", BaseMVA: 100,
		Buses: []grid.Bus{
			{ID: 1, Type: grid.Slack, Vm: 1.05, Va: 0},
			{ID: 2, Type: grid.PV, Pg: 0.5, Vm: 1.02},
			{ID: 3, Type: grid.PQ, Pd: 0.45, Qd: 0.15, Vm: 1},
			{ID: 4, Type: grid.PQ, Pd: 0.4, Qd: 0.05, Vm: 1},
			{ID: 5, Type: grid.PQ, Pd: 0.6, Qd: 0.1, Vm: 1},
			{ID: 6, Type: grid.PQ, Pd: 0.2, Qd: 0.05, Vm: 1},
		},
	}
	add := func(a, b int, r, x float64) {
		g.Branches = append(g.Branches, grid.Branch{From: a, To: b, R: r, X: x, Status: true})
	}
	add(0, 1, 0.02, 0.1)
	add(0, 2, 0.03, 0.12)
	add(1, 3, 0.02, 0.09)
	add(2, 3, 0.015, 0.08)
	add(3, 4, 0.02, 0.1)
	add(2, 4, 0.03, 0.14)
	add(4, 5, 0.01, 0.06)
	add(1, 5, 0.04, 0.16)
	return g
}

func TestWarmStartFewerIterations(t *testing.T) {
	g := mesh()
	cold, err := SolveAC(g, Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the solution: should converge almost immediately.
	wg := g.Clone()
	for i := range wg.Buses {
		wg.Buses[i].Vm = cold.Vm[i]
		wg.Buses[i].Va = cold.Va[i]
	}
	warm, err := SolveAC(wg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > 1 {
		t.Fatalf("warm start took %d iterations, want <= 1", warm.Iterations)
	}
	if cold.Iterations < 2 {
		t.Fatalf("cold start suspiciously fast: %d iterations", cold.Iterations)
	}
}

func TestNoConvergenceOnOverload(t *testing.T) {
	// An absurd load has no AC solution; the solver must say so rather
	// than return garbage.
	g := twoBus(50, 20, 0.02, 0.1)
	_, err := SolveAC(g, Options{FlatStart: true, MaxIter: 25})
	if err == nil {
		t.Fatal("expected failure for infeasible loading")
	}
	if !errors.Is(err, ErrNoConvergence) {
		// A singular Jacobian near collapse is also acceptable; both
		// signal infeasibility. Only a nil error is wrong.
		t.Logf("non-convergence reported as: %v", err)
	}
}

func TestNoSlackError(t *testing.T) {
	g := twoBus(0.1, 0.05, 0.02, 0.1)
	g.Buses[0].Type = grid.PQ
	if _, err := SolveAC(g, Options{}); err == nil {
		t.Fatal("expected error without slack bus")
	}
	if _, err := SolveDC(g); err == nil {
		t.Fatal("expected DC error without slack bus")
	}
}

func TestSolutionPhasor(t *testing.T) {
	s := &Solution{Vm: []float64{2}, Va: []float64{math.Pi / 2}}
	p := s.Phasor(0)
	if cmplx.Abs(p-2i) > 1e-12 {
		t.Fatalf("Phasor = %v, want 2i", p)
	}
}

func TestDCMatchesACAnglesApproximately(t *testing.T) {
	// Light loading, low R/X: DC angles should approximate AC angles.
	g := mesh()
	for i := range g.Buses {
		g.Buses[i].Pd *= 0.3
		g.Buses[i].Qd = 0
		g.Buses[i].Pg *= 0.3
		if g.Buses[i].Type != grid.PQ {
			g.Buses[i].Vm = 1
		}
	}
	for e := range g.Branches {
		g.Branches[e].R = 0
	}
	ac, err := SolveAC(g, Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := SolveDC(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ac.Va {
		if math.Abs(ac.Va[i]-dc.Va[i]) > 0.01 {
			t.Errorf("bus %d: AC angle %.5f vs DC %.5f", i, ac.Va[i], dc.Va[i])
		}
	}
}

func TestDCPowerBalance(t *testing.T) {
	g := mesh()
	dc, err := SolveDC(g)
	if err != nil {
		t.Fatal(err)
	}
	// The DC branch flows (theta_f - theta_t)/X must sum to the
	// injection at every non-slack bus.
	p := make([]float64, g.N())
	for _, br := range g.Branches {
		flow := (dc.Va[br.From] - dc.Va[br.To]) / br.X
		p[br.From] += flow
		p[br.To] -= flow
	}
	for i := 1; i < g.N(); i++ {
		want := g.Buses[i].Pg - g.Buses[i].Pd
		if math.Abs(p[i]-want) > 1e-9 {
			t.Errorf("bus %d: DC injection %.6f, want %.6f", i, p[i], want)
		}
	}
}

func TestDispatchBalancesGeneration(t *testing.T) {
	g := mesh()
	// Unbalance generation, then re-dispatch.
	g.Buses[1].Pg = 10
	ng := Dispatch(g, 0.03)
	var gen float64
	for i := range ng.Buses {
		if ng.Buses[i].Type != grid.PQ {
			gen += ng.Buses[i].Pg
		}
	}
	want := ng.TotalLoad() * 1.03
	if math.Abs(gen-want) > 1e-9 {
		t.Fatalf("dispatched generation %.6f, want %.6f", gen, want)
	}
	// Original untouched.
	if g.Buses[1].Pg != 10 {
		t.Fatal("Dispatch mutated its input")
	}
}

func TestDispatchNoGenerators(t *testing.T) {
	g := twoBus(0.1, 0, 0.01, 0.1)
	g.Buses[0].Pg = 0
	ng := Dispatch(g, 0)
	if ng.Buses[0].Pg != 0 {
		t.Fatal("Dispatch with zero generation must be a no-op")
	}
}

func TestOutageShiftsPhasors(t *testing.T) {
	// Removing a line must change the voltage profile — this is the
	// physical signal the whole detector is built on.
	g := mesh()
	base, err := SolveAC(g, Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := SolveAC(g.WithoutLine(3), Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	var maxShift float64
	for i := range base.Va {
		if d := math.Abs(base.Va[i] - out.Va[i]); d > maxShift {
			maxShift = d
		}
	}
	if maxShift < 1e-4 {
		t.Fatalf("outage signature too small: %.2e", maxShift)
	}
}

func BenchmarkSolveACMesh6(b *testing.B) {
	g := mesh()
	for i := 0; i < b.N; i++ {
		if _, err := SolveAC(g, Options{FlatStart: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestACConvergesOnRandomFeasibleGrids(t *testing.T) {
	// Property: randomly generated light-load meshed grids admit an AC
	// solution from flat start, and solving twice is deterministic.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(10)
		g := &grid.Grid{Name: "rand", BaseMVA: 100}
		for i := 0; i < n; i++ {
			b := grid.Bus{ID: i + 1, Type: grid.PQ, Vm: 1}
			if i == 0 {
				b.Type = grid.Slack
				b.Vm = 1.02
			}
			g.Buses = append(g.Buses, b)
		}
		for i := 1; i < n; i++ {
			parent := rng.Intn(i)
			g.Branches = append(g.Branches, grid.Branch{
				From: parent, To: i, R: 0.01 + 0.02*rng.Float64(),
				X: 0.05 + 0.1*rng.Float64(), Status: true,
			})
		}
		for k := 0; k < n/2; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			g.Branches = append(g.Branches, grid.Branch{
				From: a, To: b, R: 0.01, X: 0.05 + 0.2*rng.Float64(), Status: true,
			})
		}
		var load float64
		for i := 1; i < n; i++ {
			pd := 0.02 + 0.06*rng.Float64()
			g.Buses[i].Pd = pd
			g.Buses[i].Qd = pd * 0.3
			load += pd
		}
		s1, err := SolveAC(g, Options{FlatStart: true})
		if err != nil {
			return false
		}
		s2, err := SolveAC(g, Options{FlatStart: true})
		if err != nil {
			return false
		}
		for i := range s1.Vm {
			if s1.Vm[i] != s2.Vm[i] || s1.Va[i] != s2.Va[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
