package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveKnown(t *testing.T) {
	a := NewDenseData(3, 3, []float64{
		2, 1, 1,
		1, 3, 2,
		1, 0, 0,
	})
	b := []float64{4, 5, 6}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Verify A*x = b rather than hard-coding x.
	r := a.MulVec(x)
	for i := range b {
		if math.Abs(r[i]-b[i]) > 1e-12 {
			t.Fatalf("residual at %d: %v vs %v", i, r[i], b[i])
		}
	}
}

func TestLUSolveRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randDense(rng, n, n)
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		r := a.MulVec(x)
		for i := range b {
			if math.Abs(r[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 4})
	if _, err := FactorLU(a); err == nil {
		t.Fatal("expected ErrSingular for rank-1 matrix")
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorLU(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 6
	a := randDense(rng, n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 10)
	}
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(inv).Equalf(Identity(n), 1e-9) {
		t.Fatal("A * A^-1 != I")
	}
	if !inv.Mul(a).Equalf(Identity(n), 1e-9) {
		t.Fatal("A^-1 * A != I")
	}
}

func TestLUSolveMat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 5
	a := randDense(rng, n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 8)
	}
	b := randDense(rng, n, 3)
	f, err := FactorLU(a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveMat(b)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(x).Equalf(b, 1e-9) {
		t.Fatal("A*X != B")
	}
}

func TestLUSolveWrongLength(t *testing.T) {
	a := Identity(3)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Fatal("expected error for wrong rhs length")
	}
}

func BenchmarkFactorLU117(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 117, 117) // B′ of a 118-bus grid
	w := NewDense(117, 117)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(w.data, a.data)
		if _, err := FactorLU(w); err != nil {
			b.Fatal(err)
		}
	}
}
