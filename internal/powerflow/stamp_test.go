package powerflow

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/mat"
)

// ring returns an n-bus ring grid with uniform impedances and a slack at
// bus 0.
func ring(n int) *grid.Grid {
	g := &grid.Grid{Name: "ring", BaseMVA: 100}
	for i := 0; i < n; i++ {
		b := grid.Bus{ID: i + 1, Type: grid.PQ, Vm: 1}
		if i == 0 {
			b.Type = grid.Slack
		}
		g.Buses = append(g.Buses, b)
	}
	for i := 0; i < n; i++ {
		g.Branches = append(g.Branches, grid.Branch{
			From: i, To: (i + 1) % n, R: 0.01, X: 0.1, Status: true,
		})
	}
	return g
}

// denseYbus is the test oracle for newYbusAdj: the textbook dense n×n
// accumulation of every in-service branch (charging, tap and shift),
// then every bus shunt.
func denseYbus(g *grid.Grid) [][]complex128 {
	n := g.N()
	y := make([][]complex128, n)
	for i := range y {
		y[i] = make([]complex128, n)
	}
	for _, br := range g.Branches {
		if !br.Status {
			continue
		}
		ys := br.Admittance()
		bc := complex(0, br.B/2)
		tap := br.Tap
		if tap == 0 { //gridlint:ignore floatcmp tap==0 is the case-file sentinel for unity ratio
			tap = 1
		}
		a := complex(tap*math.Cos(br.Shift), tap*math.Sin(br.Shift))
		aconj := complex(real(a), -imag(a))
		amag2 := complex(tap*tap, 0)
		f, to := br.From, br.To
		y[f][f] += (ys + bc) / amag2
		y[to][to] += ys + bc
		y[f][to] += -ys / aconj
		y[to][f] += -ys / a
	}
	for i := range g.Buses {
		y[i][i] += complex(g.Buses[i].Gs, g.Buses[i].Bs)
	}
	return y
}

// ybusAt returns entry (i, j) of the stamped admittance, zero when it is
// not stored.
func ybusAt(a *ybusAdj, i, j int) complex128 {
	for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
		if a.cols[k] == j {
			return complex(a.gv[k], a.bv[k])
		}
	}
	return 0
}

func TestYbusRowSumsZeroWithoutShunts(t *testing.T) {
	// With no shunts, taps, or charging, each Ybus row sums to zero
	// (Laplacian structure).
	a := newYbusAdj(ring(5))
	for i := 0; i < 5; i++ {
		var s complex128
		for j := 0; j < 5; j++ {
			s += ybusAt(a, i, j)
		}
		if cmplx.Abs(s) > 1e-12 {
			t.Fatalf("row %d sum = %v", i, s)
		}
	}
}

func TestYbusSymmetricWithoutTaps(t *testing.T) {
	a := newYbusAdj(ring(5))
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if cmplx.Abs(ybusAt(a, i, j)-ybusAt(a, j, i)) > 1e-12 {
				t.Fatalf("Ybus not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestYbusTapAsymmetry(t *testing.T) {
	g := ring(3)
	g.Branches[0].Tap = 0.95
	y := newYbusAdj(g)
	if cmplx.Abs(ybusAt(y, 0, 1)-ybusAt(y, 1, 0)) > 1e-12 {
		t.Fatal("real tap (no shift) keeps Ybus symmetric")
	}
	// Diagonal scaling differs: from-side sees y/t^2.
	y2 := newYbusAdj(ring(3))
	if cmplx.Abs(ybusAt(y, 0, 0)-ybusAt(y2, 0, 0)) < 1e-12 {
		t.Fatal("tap must change the from-side diagonal")
	}
	// A phase shift breaks the symmetry of the off-diagonal pair.
	g.Branches[0].Shift = 0.1
	if y := newYbusAdj(g); cmplx.Abs(ybusAt(y, 0, 1)-ybusAt(y, 1, 0)) < 1e-6 {
		t.Fatal("phase shift must make Ybus asymmetric")
	}
}

func TestYbusShuntAndCharging(t *testing.T) {
	g := ring(3)
	g.Buses[1].Bs = 0.5
	g.Branches[0].B = 0.2
	y := newYbusAdj(g)
	// Bus 1 diagonal gains j0.5 shunt plus j0.1 charging from branch 0.
	base := ybusAt(newYbusAdj(ring(3)), 1, 1)
	if cmplx.Abs(ybusAt(y, 1, 1)-(base+complex(0, 0.6))) > 1e-12 {
		t.Fatalf("shunt/charging not applied: %v vs %v", ybusAt(y, 1, 1), base)
	}
}

// TestYbusStampMatchesDense: the CSR stamp holds exactly the nonzero
// entries of the dense accumulation, columns ascending, with the same
// bits, on meshed grids with taps, shifts, charging, shunts, parallel
// branches and an out-of-service branch.
func TestYbusStampMatchesDense(t *testing.T) {
	for _, n := range []int{5, 40, SparseBusThreshold} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := randMeshedGrid(rng, n)
		for e := range g.Branches {
			br := &g.Branches[e]
			switch e % 5 {
			case 1:
				br.Tap = 0.9 + 0.2*rng.Float64()
			case 2:
				br.Tap, br.Shift = 1.05, 0.2*rng.Float64()-0.1
			case 3:
				br.B = 0.1 * rng.Float64()
			}
		}
		g.Branches = append(g.Branches, g.Branches[1]) // a parallel branch
		g.Branches[len(g.Branches)-2].Status = false
		for i := 0; i < n; i += 3 {
			g.Buses[i].Gs, g.Buses[i].Bs = 0.01*rng.Float64(), 0.2*rng.Float64()-0.1
		}
		dense, a := denseYbus(g), newYbusAdj(g)
		for i := 0; i < n; i++ {
			k := a.rowPtr[i]
			for j := 0; j < n; j++ {
				want := dense[i][j]
				if want == 0 { //gridlint:ignore floatcmp exact zeros are the entries the stamp must not store
					if k < a.rowPtr[i+1] && a.cols[k] == j {
						t.Fatalf("n=%d: (%d,%d) stored although it sums to zero", n, i, j)
					}
					continue
				}
				if k == a.rowPtr[i+1] || a.cols[k] != j {
					t.Fatalf("n=%d: (%d,%d) missing or columns out of order", n, i, j)
				}
				if math.Float64bits(a.gv[k]) != math.Float64bits(real(want)) ||
					math.Float64bits(a.bv[k]) != math.Float64bits(imag(want)) {
					t.Fatalf("n=%d: (%d,%d) = %v, dense %v", n, i, j, complex(a.gv[k], a.bv[k]), want)
				}
				k++
			}
			if k != a.rowPtr[i+1] {
				t.Fatalf("n=%d: row %d stores %d entries the dense matrix lacks", n, i, a.rowPtr[i+1]-k)
			}
		}
	}
}

// TestBPrimeStampProperties: the stamped B′ is the reduced weighted
// Laplacian. It is symmetric with a positive diagonal, each row sums to
// the susceptance between its bus and the slack, and every entry has
// the bits of a dense accumulation in branch order.
func TestBPrimeStampProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := ring(n)
		slack := rng.Intn(n)
		g.Buses[0].Type, g.Buses[slack].Type = grid.PQ, grid.Slack
		// Random chords with random reactances.
		for k := 0; k < n/2; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			g.Branches = append(g.Branches, grid.Branch{
				From: a, To: b, X: 0.05 + rng.Float64(), Status: true,
			})
		}
		lap := make([][]float64, n)
		for i := range lap {
			lap[i] = make([]float64, n)
		}
		for _, br := range g.Branches {
			w := 1 / br.X
			lap[br.From][br.From] += w
			lap[br.To][br.To] += w
			lap[br.From][br.To] += -w
			lap[br.To][br.From] += -w
		}
		b, idx, err := stampBPrime(g)
		if err != nil || len(idx) != n-1 {
			return false
		}
		for r, i := range idx {
			var s float64
			for c, j := range idx {
				if math.Float64bits(b.At(r, c)) != math.Float64bits(lap[i][j]) || b.At(r, c) != b.At(c, r) {
					return false
				}
				s += b.At(r, c)
			}
			if b.At(r, r) <= 0 || math.Abs(s+lap[i][slack]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDCFactorSingularWhenIslanded: B′ is invertible exactly while every
// bus reaches the slack, so the factor doubles as the connectivity
// check. Cutting a ring once keeps it connected; cutting it twice
// islands a path away from the slack, and both linear solves find the
// zero pivot.
func TestDCFactorSingularWhenIslanded(t *testing.T) {
	g := ring(8)
	for _, sparse := range []bool{false, true} {
		if _, err := newDCFactor(g, sparse); err != nil {
			t.Fatalf("sparse=%v ring: %v", sparse, err)
		}
		if _, err := newDCFactor(g.WithoutLine(0), sparse); err != nil {
			t.Fatalf("sparse=%v ring cut once: %v", sparse, err)
		}
		_, err := newDCFactor(g.WithoutLines([]grid.Line{0, 4}), sparse)
		if !errors.Is(err, mat.ErrSingular) {
			t.Fatalf("sparse=%v islanded ring: got %v, want mat.ErrSingular", sparse, err)
		}
	}
}

// TestDCFactorReuse: one factor solves any injections on its topology
// with the bits of a fresh SolveDC, on both linear solves, and refuses
// a grid of another size.
func TestDCFactorReuse(t *testing.T) {
	for _, tc := range []struct {
		n      int
		sparse bool
	}{{30, false}, {SparseBusThreshold, true}} {
		rng := rand.New(rand.NewSource(int64(tc.n)))
		g := randMeshedGrid(rng, tc.n)
		f, err := newDCFactor(g, tc.sparse)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 5; step++ {
			ld := g.Clone()
			for i := range ld.Buses {
				ld.Buses[i].Pd *= 0.5 + rng.Float64()
			}
			ld = Dispatch(ld, 0.02)
			got, err := f.Solve(ld)
			if err != nil {
				t.Fatal(err)
			}
			want, err := solveDC(ld, tc.sparse)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Va {
				if math.Float64bits(got.Va[i]) != math.Float64bits(want.Va[i]) || got.Vm[i] != 1 {
					t.Fatalf("n=%d step %d bus %d: factor gave %v, fresh solve %v", tc.n, step, i, got.Va[i], want.Va[i])
				}
			}
		}
		if _, err := f.Solve(ring(tc.n - 1)); err == nil {
			t.Fatalf("n=%d: a %d-bus grid must be refused", tc.n, tc.n-1)
		}
	}
}
