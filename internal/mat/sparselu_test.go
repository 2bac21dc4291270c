package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randStructSym draws an n-by-n matrix with a symmetric random pattern,
// unsymmetric values and a dominant diagonal: the shape of a power-flow
// Jacobian.
func randStructSym(rng *rand.Rand, n int) *Sparse {
	var trips []Triplet
	rowSum := make([]float64, n)
	for e := 0; e < 2*n; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		a, b := rng.NormFloat64(), rng.NormFloat64()
		trips = append(trips, Triplet{Row: i, Col: j, Val: a}, Triplet{Row: j, Col: i, Val: b})
		rowSum[i] += math.Abs(a)
		rowSum[j] += math.Abs(b)
	}
	for i := 0; i < n; i++ {
		trips = append(trips, Triplet{Row: i, Col: i, Val: 1 + rowSum[i] + rng.Float64()})
	}
	return NewSparse(n, n, trips)
}

// TestSparseLUMatchesLU: over random structurally symmetric systems the
// sparse factorization solves what dense partial-pivoting LU solves.
func TestSparseLUMatchesLU(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		s := randStructSym(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		var lu SparseLU
		if err := lu.Factor(s); err != nil {
			return false
		}
		xs, err := lu.Solve(b)
		if err != nil {
			return false
		}
		xd, err := Solve(s.DenseInto(nil), b)
		if err != nil {
			return false
		}
		for i := range xs {
			if math.Abs(xs[i]-xd[i]) > 1e-10*(1+math.Abs(xd[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// gridLaplacian builds a grounded n-node grid Laplacian: a ring closed
// through the ground, plus local chords — the shape of the reduced B
// matrix the DC power flow factors.
func gridLaplacian(rng *rand.Rand, n int) *Sparse {
	var trips []Triplet
	add := func(i, j int, w float64) {
		if i >= 0 && j >= 0 {
			trips = append(trips, Triplet{Row: i, Col: j, Val: -w}, Triplet{Row: j, Col: i, Val: -w})
		}
		if i >= 0 {
			trips = append(trips, Triplet{Row: i, Col: i, Val: w})
		}
		if j >= 0 {
			trips = append(trips, Triplet{Row: j, Col: j, Val: w})
		}
	}
	for i := 0; i < n; i++ {
		j := i + 1
		if j == n {
			j = -1 // grounded node closes the ring
		}
		add(i, j, 5+10*rng.Float64())
	}
	for i := 0; i < n; i++ {
		if j := i + 2 + rng.Intn(8); j < n {
			add(i, j, 1+rng.Float64())
		}
	}
	return NewSparse(n, n, trips)
}

func TestSparseLULaplacianLike(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	a := gridLaplacian(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var lu SparseLU
	if err := lu.Factor(a); err != nil {
		t.Fatal(err)
	}
	x, err := lu.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	r := Sub(b, a.DenseInto(nil).MulVec(x))
	if Norm2(r) > 1e-12*Norm2(b) {
		t.Fatalf("relative residual %v", Norm2(r)/Norm2(b))
	}
}

// TestSparseLUIllConditioned: a diagonal system with condition number
// 1e12 solves to full relative accuracy, since the elimination is exact
// division on the diagonal.
func TestSparseLUIllConditioned(t *testing.T) {
	n := 8
	var trips []Triplet
	for i := 0; i < n; i++ {
		trips = append(trips, Triplet{Row: i, Col: i, Val: math.Pow(10, -float64(i)*12/float64(n-1))})
	}
	s := NewSparse(n, n, trips)
	var lu SparseLU
	if err := lu.Factor(s); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x, err := lu.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if want := 1 / s.At(i, i); x[i] != want {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
}

// TestSparseLUFill: minimum degree eliminates an arrow matrix's leaves
// before its hub, so the factors keep the pattern of A with no fill,
// where the natural order (hub first) would fill L and U completely.
func TestSparseLUFill(t *testing.T) {
	n := 30
	var trips []Triplet
	for i := 0; i < n; i++ {
		trips = append(trips, Triplet{Row: i, Col: i, Val: float64(n)})
		if i > 0 {
			trips = append(trips, Triplet{Row: 0, Col: i, Val: 1}, Triplet{Row: i, Col: 0, Val: -1})
		}
	}
	var lu SparseLU
	if err := lu.Factor(NewSparse(n, n, trips)); err != nil {
		t.Fatal(err)
	}
	if got := len(lu.lIdx) + len(lu.uIdx); got != 2*(n-1) {
		t.Fatalf("L+U hold %d off-diagonal entries, want %d (no fill)", got, 2*(n-1))
	}
	seen := make([]bool, n)
	for _, v := range lu.perm {
		if seen[v] {
			t.Fatalf("perm %v is not a permutation", lu.perm)
		}
		seen[v] = true
	}
}

// TestSparseLUValidation: a non-square matrix and a wrong-length
// right-hand side are refused.
func TestSparseLUValidation(t *testing.T) {
	var lu SparseLU
	if err := lu.Factor(NewSparse(2, 3, nil)); err == nil {
		t.Fatal("expected square error")
	}
	if err := lu.Factor(NewSparse(3, 3, []Triplet{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}})); err != nil {
		t.Fatal(err)
	}
	if _, err := lu.Solve([]float64{1}); err == nil {
		t.Fatal("expected rhs length error")
	}
}

// TestSparseLUZeroRHS: a zero right-hand side solves to exactly zero.
func TestSparseLUZeroRHS(t *testing.T) {
	n := 20
	var lu SparseLU
	if err := lu.Factor(randStructSym(rand.New(rand.NewSource(5)), n)); err != nil {
		t.Fatal(err)
	}
	x, err := lu.Solve(make([]float64, n))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
	}
}

// TestSparseLUSingular: zero pivots (structural and numeric) and
// non-finite pivots are reported as ErrSingular, while an indefinite
// matrix, which no positive-definite solver would take, factors and
// solves exactly.
func TestSparseLUSingular(t *testing.T) {
	for name, a := range map[string]*Sparse{
		// An isolated bus: its row and column are empty.
		"empty row": NewSparse(2, 2, []Triplet{{0, 0, 1}}),
		// Nonsingular, but a diagonal pivot is zero: diagonal pivoting
		// refuses rather than exchange rows.
		"zero diagonal": NewSparse(2, 2, []Triplet{{0, 1, 1}, {1, 0, 1}}),
		// The pivot left after eliminating row 0 is 1 - 1·1 = 0.
		"numeric zero": NewSparse(2, 2, []Triplet{{0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}}),
		"NaN":          NewSparse(1, 1, []Triplet{{0, 0, math.NaN()}}),
		"Inf":          NewSparse(1, 1, []Triplet{{0, 0, math.Inf(1)}}),
	} {
		if err := new(SparseLU).Factor(a); !errors.Is(err, ErrSingular) {
			t.Errorf("%s: want ErrSingular, got %v", name, err)
		}
	}
	// Eigenvalues 3 and -1; b lies along the negative eigendirection.
	var lu SparseLU
	if err := lu.Factor(NewSparse(2, 2, []Triplet{{0, 0, 1}, {0, 1, 2}, {1, 0, 2}, {1, 1, 1}})); err != nil {
		t.Fatal(err)
	}
	x, err := lu.Solve([]float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != -1 || x[1] != 1 {
		t.Fatalf("x = %v, want [-1 1]", x)
	}
}

// revalue returns a matrix with the pattern of a and new values: the
// diagonal doubled, each off-diagonal entry scaled into (-1, 1) of
// itself, so a dominant diagonal stays dominant.
func revalue(rng *rand.Rand, a *Sparse) *Sparse {
	b := &Sparse{rows: a.rows, cols: a.cols, rowPtr: a.rowPtr, colIdx: a.colIdx, vals: make([]float64, len(a.vals))}
	for i := 0; i < a.rows; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			if a.colIdx[p] == i {
				b.vals[p] = 2 * a.vals[p]
			} else {
				b.vals[p] = (2*rng.Float64() - 1) * a.vals[p]
			}
		}
	}
	return b
}

// dropUpper returns a with each entry above the diagonal dropped with
// probability 1/2: a pattern that is no longer symmetric, with the
// diagonal still dominant.
func dropUpper(rng *rand.Rand, a *Sparse) *Sparse {
	var trips []Triplet
	for i := 0; i < a.rows; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			if j := a.colIdx[p]; j <= i || rng.Intn(2) == 0 {
				trips = append(trips, Triplet{Row: i, Col: j, Val: a.vals[p]})
			}
		}
	}
	return NewSparse(a.rows, a.cols, trips)
}

// TestSparseLURefactorParity: a Factor that keeps the ordering chosen
// for an earlier matrix of the same pattern — the path every Newton
// iteration after the first takes — gives the exact bits a fresh
// factorization gives, also after a Factor of that pattern failed
// half-way through the ordering. The pattern is unsymmetric, so a row
// can meet a workspace entry it does not scatter: one that failed
// Factor left behind unless it clears the workspace.
func TestSparseLURefactorParity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		first := dropUpper(rng, randStructSym(rng, n))
		next := revalue(rng, first)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		var fresh SparseLU
		if fresh.Factor(next) != nil {
			return false
		}
		want, err := fresh.Solve(b)
		if err != nil {
			return false
		}
		// The same pattern, with a NaN pivot half-way through the ordering.
		bad := revalue(rng, first)
		r := fresh.perm[n/2]
		for p := bad.rowPtr[r]; p < bad.rowPtr[r+1]; p++ {
			if bad.colIdx[p] == r {
				bad.vals[p] = math.NaN()
			}
		}
		var reused SparseLU
		if reused.Factor(first) != nil {
			return false
		}
		perm := &reused.perm[0]
		for _, failFirst := range []bool{false, true} {
			if failFirst && !errors.Is(reused.Factor(bad), ErrSingular) {
				return false
			}
			if reused.Factor(next) != nil || &reused.perm[0] != perm {
				return false
			}
			x, err := reused.Solve(b)
			if err != nil {
				return false
			}
			for i := range x {
				if x[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSparseLUFactorAllocs: refactoring a matrix whose pattern the
// ordering was chosen for allocates nothing.
func TestSparseLUFactorAllocs(t *testing.T) {
	a := randStructSym(rand.New(rand.NewSource(2)), 60)
	var lu SparseLU
	if err := lu.Factor(a); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(200, func() { err = lu.Factor(a) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("refactor allocated %v times per run", allocs)
	}
}

// TestSparseLUUnsymmetricPattern: a pattern that is not symmetric is
// factored over the pattern of A + Aᵀ, so the solve is still exact.
func TestSparseLUUnsymmetricPattern(t *testing.T) {
	a := NewSparse(3, 3, []Triplet{{0, 0, 4}, {0, 2, 1}, {1, 1, 3}, {2, 1, 1}, {2, 2, 5}})
	var lu SparseLU
	if err := lu.Factor(a); err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	x, err := lu.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(a.DenseInto(nil), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-15 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func BenchmarkSparseLULaplacian1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1000
	a := gridLaplacian(rng, n)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var lu SparseLU
		if err := lu.Factor(a); err != nil {
			b.Fatal(err)
		}
		if _, err := lu.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}
