package powerflow

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/mat"
)

// randMeshedGrid builds a feasible n-bus meshed grid with a slack, a
// few PV buses, and lognormal-ish loads — enough structure to exercise
// every Jacobian block (P/Q × angle/magnitude) on both linear solves.
func randMeshedGrid(rng *rand.Rand, n int) *grid.Grid {
	g := &grid.Grid{Name: "randmesh", BaseMVA: 100}
	for i := 0; i < n; i++ {
		b := grid.Bus{ID: i + 1, Type: grid.PQ, Vm: 1}
		switch {
		case i == 0:
			b.Type = grid.Slack
			b.Vm = 1.03
		case i%7 == 3:
			b.Type = grid.PV
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
	for k := 0; k < n; k++ {
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
		if g.Buses[i].Type != grid.PQ {
			continue
		}
		pd := 0.02 + 0.05*rng.Float64()
		g.Buses[i].Pd = pd
		g.Buses[i].Qd = pd * 0.3
		load += pd
	}
	var pv []int
	for i := range g.Buses {
		if g.Buses[i].Type == grid.PV {
			pv = append(pv, i)
		}
	}
	for _, i := range pv {
		g.Buses[i].Pg = 0.7 * load / float64(len(pv))
	}
	return g
}

// TestSolveACSparseDenseParity: the sparse and the dense linear solve
// drive the same Newton loop, so on grids both solve they take the same
// number of steps and agree to rounding.
func TestSolveACSparseDenseParity(t *testing.T) {
	for _, n := range []int{12, 35, 60, SparseBusThreshold} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := randMeshedGrid(rng, n)
		dense, err := solveAC(g, Options{FlatStart: true}, false)
		if err != nil {
			t.Fatalf("n=%d dense: %v", n, err)
		}
		sparse, err := solveAC(g, Options{FlatStart: true}, true)
		if err != nil {
			t.Fatalf("n=%d sparse: %v", n, err)
		}
		if dense.Iterations != sparse.Iterations {
			t.Fatalf("n=%d: dense took %d iterations, sparse %d", n, dense.Iterations, sparse.Iterations)
		}
		for i := 0; i < n; i++ {
			if math.Abs(dense.Vm[i]-sparse.Vm[i]) > 1e-10 || math.Abs(dense.Va[i]-sparse.Va[i]) > 1e-10 {
				t.Fatalf("n=%d bus %d: dense (%.12f, %.12f) vs sparse (%.12f, %.12f)",
					n, i, dense.Vm[i], dense.Va[i], sparse.Vm[i], sparse.Va[i])
			}
		}
	}
}

func TestSolveDCSparseDenseParity(t *testing.T) {
	for _, n := range []int{12, 35, 60, SparseBusThreshold} {
		rng := rand.New(rand.NewSource(int64(n) + 100))
		g := randMeshedGrid(rng, n)
		dense, err := solveDC(g, false)
		if err != nil {
			t.Fatalf("n=%d dense: %v", n, err)
		}
		sparse, err := solveDC(g, true)
		if err != nil {
			t.Fatalf("n=%d sparse: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(dense.Va[i]-sparse.Va[i]) > 1e-12 {
				t.Fatalf("n=%d bus %d: dense angle %.15f vs sparse %.15f", n, i, dense.Va[i], sparse.Va[i])
			}
		}
	}
}

// TestSolverAutoDispatch pins the size rule: below SparseBusThreshold
// buses SolveAC and SolveDC are the dense linear solve bit for bit; at
// or above it, the sparse one bit for bit.
func TestSolverAutoDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		n      int
		sparse bool
	}{{SparseBusThreshold - 1, false}, {SparseBusThreshold, true}} {
		g := randMeshedGrid(rng, tc.n)
		auto, err := SolveAC(g, Options{FlatStart: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := solveAC(g, Options{FlatStart: true}, tc.sparse)
		if err != nil {
			t.Fatal(err)
		}
		dcAuto, err := SolveDC(g)
		if err != nil {
			t.Fatal(err)
		}
		dcWant, err := solveDC(g, tc.sparse)
		if err != nil {
			t.Fatal(err)
		}
		for i := range auto.Vm {
			if auto.Vm[i] != want.Vm[i] || auto.Va[i] != want.Va[i] || dcAuto.Va[i] != dcWant.Va[i] {
				t.Fatalf("%d buses: auto dispatch deviated from sparse=%v at bus %d", tc.n, tc.sparse, i)
			}
		}
	}
}

// TestSingularJacobian: a PQ bus with no in-service branch leaves an
// empty Jacobian row; both linear solves report it as a singular
// Jacobian wrapping mat.ErrSingular, not as non-convergence.
func TestSingularJacobian(t *testing.T) {
	g := randMeshedGrid(rand.New(rand.NewSource(3)), 20)
	for e := range g.Branches {
		if g.Branches[e].From == 19 || g.Branches[e].To == 19 {
			g.Branches[e].Status = false
		}
	}
	for _, sparse := range []bool{false, true} {
		_, err := solveAC(g, Options{FlatStart: true}, sparse)
		if !errors.Is(err, mat.ErrSingular) || errors.Is(err, ErrNoConvergence) {
			t.Errorf("sparse=%v: got %v, want a singular-Jacobian error", sparse, err)
		}
		if _, err := solveDC(g, sparse); !errors.Is(err, mat.ErrSingular) {
			t.Errorf("sparse=%v DC: got %v, want mat.ErrSingular", sparse, err)
		}
	}
}

// TestSparseACPowerBalance: the sparse solution must satisfy the
// physics, not just match the dense solver — check scheduled
// injections at every bus of a threshold-sized grid.
func TestSparseACPowerBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randMeshedGrid(rng, SparseBusThreshold+10)
	sol, err := SolveAC(g, Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Mismatch >= 1e-8 {
		t.Fatalf("mismatch %v not below tolerance", sol.Mismatch)
	}
	ybus := denseYbus(g)
	n := g.N()
	for i := 0; i < n; i++ {
		if g.Buses[i].Type != grid.PQ {
			continue
		}
		var sum complex128
		for j := 0; j < n; j++ {
			vj := complex(sol.Vm[j]*math.Cos(sol.Va[j]), sol.Vm[j]*math.Sin(sol.Va[j]))
			sum += ybus[i][j] * vj
		}
		vi := complex(sol.Vm[i]*math.Cos(sol.Va[i]), sol.Vm[i]*math.Sin(sol.Va[i]))
		s := vi * complex(real(sum), -imag(sum))
		wantP := g.Buses[i].Pg - g.Buses[i].Pd
		wantQ := g.Buses[i].Qg - g.Buses[i].Qd
		if math.Abs(real(s)-wantP) > 1e-7 || math.Abs(imag(s)-wantQ) > 1e-7 {
			t.Fatalf("bus %d injection (%v) != scheduled (%v, %v)", i, s, wantP, wantQ)
		}
	}
}
