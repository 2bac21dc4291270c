package mat

import (
	"math/rand"
	"testing"
)

func TestOrthonormalizeBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randDense(rng, 8, 4)
	q := Orthonormalize(a)
	if q.Cols() != 4 {
		t.Fatalf("Orthonormalize dropped independent columns: %d", q.Cols())
	}
	if !isOrthonormalCols(q, 1e-10) {
		t.Fatal("result not orthonormal")
	}
}

func TestOrthonormalizeDropsDependent(t *testing.T) {
	a := NewDense(4, 3)
	v := []float64{1, 2, 3, 4}
	a.SetCol(0, v)
	a.SetCol(1, []float64{2, 4, 6, 8}) // 2v, dependent
	a.SetCol(2, []float64{0, 1, 0, 0})
	q := Orthonormalize(a)
	if q.Cols() != 2 {
		t.Fatalf("got %d basis vectors, want 2", q.Cols())
	}
}

func TestOrthonormalizeSpanPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randDense(rng, 6, 3)
	q := Orthonormalize(a)
	// Every original column must be reproduced by projection onto q.
	for j := 0; j < a.Cols(); j++ {
		c := a.Col(j)
		proj := make([]float64, len(c))
		for k := 0; k < q.Cols(); k++ {
			u := q.Col(k)
			alpha := Dot(u, c)
			for i := range proj {
				proj[i] += alpha * u[i]
			}
		}
		if Norm2(Sub(c, proj)) > 1e-9 {
			t.Fatalf("column %d not in span of basis", j)
		}
	}
}
