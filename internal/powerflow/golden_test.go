package powerflow_test

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/powerflow"
)

// TestSolveGoldenFingerprint pins the bits of every power-flow result on
// the paper's four evaluation grids: AC from a flat and from a warm
// start, and DC, on the base case and on every single-branch outage.
// A solve that fails contributes whether it failed and whether the
// failure is ErrNoConvergence, so a change that makes a previously
// failing draw converge (or the reverse) moves the hash too.
func TestSolveGoldenFingerprint(t *testing.T) {
	want := map[string]string{
		"ieee14":  "78921eaab8ffebbf",
		"ieee30":  "e5497a211b090ff8",
		"ieee57":  "fe5ab8a1e7d48b0d",
		"ieee118": "1406879842cc0155",
	}
	solvers := []func(*grid.Grid) (*powerflow.Solution, error){
		func(g *grid.Grid) (*powerflow.Solution, error) {
			return powerflow.SolveAC(g, powerflow.Options{FlatStart: true})
		},
		func(g *grid.Grid) (*powerflow.Solution, error) {
			return powerflow.SolveAC(g, powerflow.Options{})
		},
		powerflow.SolveDC,
	}
	for _, g := range cases.All() {
		t.Run(g.Name, func(t *testing.T) {
			h := sha256.New()
			var ok, failed int
			for e := -1; e < g.E(); e++ {
				work := g
				if e >= 0 {
					work = g.WithoutLine(grid.Line(e))
				}
				for _, solve := range solvers {
					sol, err := solve(work)
					hashSolve(h, sol, err)
					if err != nil {
						failed++
					} else {
						ok++
					}
				}
			}
			t.Logf("%d solves converged, %d failed", ok, failed)
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want[g.Name] {
				t.Errorf("%s power-flow fingerprint %s, want %s", g.Name, got, want[g.Name])
			}
		})
	}
}

// hashSolve feeds h the outcome of one solve: a failure flag and class,
// or the bits of the iteration count, mismatch and every bus voltage.
func hashSolve(h hash.Hash, sol *powerflow.Solution, err error) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	if err != nil {
		put(1)
		if errors.Is(err, powerflow.ErrNoConvergence) {
			put(1)
		} else {
			put(0)
		}
		return
	}
	put(0)
	put(uint64(sol.Iterations))
	put(math.Float64bits(sol.Mismatch))
	for i := range sol.Vm {
		put(math.Float64bits(sol.Vm[i]))
		put(math.Float64bits(sol.Va[i]))
	}
}
