package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSym(rng *rand.Rand, n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func randSPD(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n, n)
	spd := a.Mul(a.T())
	for i := 0; i < n; i++ {
		spd.Add(i, i, float64(n))
	}
	return spd
}

func TestEigenReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randSym(rng, n)
		e, err := FactorEigenSym(a, 0)
		if err != nil {
			return false
		}
		// V diag(vals) Vᵀ == A
		vd := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				vd.Set(i, j, e.V.At(i, j)*e.Values[j])
			}
		}
		return vd.Mul(e.V.T()).Equalf(a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEigenOrthonormalSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSym(rng, 7)
	e, err := FactorEigenSym(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !isOrthonormalCols(e.V, 1e-9) {
		t.Fatal("eigenvectors not orthonormal")
	}
	for i := 1; i < len(e.Values); i++ {
		if e.Values[i-1] < e.Values[i] {
			t.Fatal("eigenvalues not sorted decreasing")
		}
	}
}

func TestEigenKnownDiagonal(t *testing.T) {
	a := NewDenseData(3, 3, []float64{
		2, 0, 0,
		0, -1, 0,
		0, 0, 5,
	})
	e, err := FactorEigenSym(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 2, -1}
	for i, w := range want {
		if math.Abs(e.Values[i]-w) > 1e-12 {
			t.Fatalf("Values = %v, want %v", e.Values, want)
		}
	}
}

func TestEigenTraceInvariant(t *testing.T) {
	// Sum of eigenvalues equals the trace.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		a := randSym(rng, n)
		e, err := FactorEigenSym(a, 0)
		if err != nil {
			return false
		}
		var tr, sum float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
			sum += e.Values[i]
		}
		return math.Abs(tr-sum) < 1e-9*(1+math.Abs(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEigenRejectsAsymmetric(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	if _, err := FactorEigenSym(a, 0); err == nil {
		t.Fatal("expected symmetry error")
	}
	if _, err := FactorEigenSym(NewDense(2, 3), 0); err == nil {
		t.Fatal("expected square error")
	}
}

func TestEigenMatchesSVDForSPD(t *testing.T) {
	// For SPD matrices, eigenvalues equal singular values.
	rng := rand.New(rand.NewSource(11))
	a := randSPD(rng, 6)
	e, err := FactorEigenSym(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := FactorSVD(a)
	for i := range e.Values {
		if math.Abs(e.Values[i]-s.S[i]) > 1e-8*(1+s.S[0]) {
			t.Fatalf("eigen %v vs singular %v at %d", e.Values[i], s.S[i], i)
		}
	}
}
