package recovery

import (
	"math/rand"
	"testing"

	"pmuoutage/internal/mat"
)

// lowRankMatrix builds an exactly rank-r d x t matrix.
func lowRankMatrix(rng *rand.Rand, d, t, r int) *mat.Dense {
	u := mat.NewDense(d, r)
	v := mat.NewDense(t, r)
	for i := 0; i < d; i++ {
		for k := 0; k < r; k++ {
			u.Set(i, k, rng.NormFloat64())
		}
	}
	for j := 0; j < t; j++ {
		for k := 0; k < r; k++ {
			v.Set(j, k, rng.NormFloat64())
		}
	}
	return u.Mul(v.T())
}

func TestBasisValidation(t *testing.T) {
	if _, err := Basis(mat.NewDense(0, 0), 2); err == nil {
		t.Fatal("expected error for empty history")
	}
	if _, err := Basis(mat.NewDense(3, 4), 2); err == nil {
		t.Fatal("expected error for zero history")
	}
}

func TestBasisClampsRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := lowRankMatrix(rng, 8, 12, 2)
	b, err := Basis(x, 6)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cols() != 2 {
		t.Fatalf("basis rank = %d, want 2", b.Cols())
	}
}

func TestSubspaceImputeExactOnLowRank(t *testing.T) {
	// A sample drawn from the same low-rank model must be recovered
	// exactly when enough entries are observed.
	rng := rand.New(rand.NewSource(2))
	d, r := 10, 2
	x := lowRankMatrix(rng, d, 30, r)
	basis, err := Basis(x, r)
	if err != nil {
		t.Fatal(err)
	}
	// New sample in the same column space: combination of basis columns.
	b0, b1 := basis.Col(0), basis.Col(1)
	truth := make([]float64, d)
	for i := range truth {
		truth[i] = 1.3*b0[i] - 0.7*b1[i]
	}
	sample := append([]float64(nil), truth...)
	missing := make([]bool, d)
	missing[3], missing[7] = true, true
	sample[3], sample[7] = 0, 0

	rec, err := SubspaceImpute(basis, sample, missing)
	if err != nil {
		t.Fatal(err)
	}
	rmse, n := ImputeError(truth, rec, missing)
	if n != 2 {
		t.Fatalf("imputed %d entries, want 2", n)
	}
	if rmse > 1e-10 {
		t.Fatalf("exact recovery failed: rmse = %v", rmse)
	}
	// Observed entries untouched.
	for i := range rec {
		if !missing[i] && rec[i] != sample[i] {
			t.Fatal("observed entry modified")
		}
	}
}

func TestSubspaceImputeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	basis, _ := Basis(lowRankMatrix(rng, 5, 10, 2), 2)
	if _, err := SubspaceImpute(basis, []float64{1, 2}, []bool{false, false}); err == nil {
		t.Fatal("expected length error")
	}
	allMissing := make([]bool, 5)
	for i := range allMissing {
		allMissing[i] = true
	}
	if _, err := SubspaceImpute(basis, make([]float64, 5), allMissing); err != ErrNoObservations {
		t.Fatalf("err = %v, want ErrNoObservations", err)
	}
	// Nothing missing: identity.
	x := []float64{1, 2, 3, 4, 5}
	out, err := SubspaceImpute(basis, x, make([]bool, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if out[i] != x[i] {
			t.Fatal("complete sample must pass through unchanged")
		}
	}
}

func TestImputeErrorEmpty(t *testing.T) {
	rmse, n := ImputeError([]float64{1}, []float64{2}, []bool{false})
	if rmse != 0 || n != 0 {
		t.Fatal("no imputed entries must give zero error")
	}
}
