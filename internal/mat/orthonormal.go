package mat

import (
	"fmt"
	"math"
)

// Orthonormalize returns an orthonormal basis for the column space of a,
// dropping columns that are (numerically) linearly dependent. The result
// has the same number of rows as a and at most min(rows, cols) columns.
func Orthonormalize(a *Dense) *Dense {
	return ExtendOrthonormal(nil, a)
}

// ExtendOrthonormal grows an orthonormal basis q by the columns of a —
// the rank-one update behind incremental subspace maintenance. Each new
// column is orthogonalised against q's columns and the directions
// accepted so far with a two-pass modified Gram–Schmidt, dropped when
// numerically dependent, and normalised otherwise. q's columns pass
// through verbatim (never re-orthogonalised or re-normalised), so a
// chain of extensions from an empty basis reproduces Orthonormalize of
// the concatenation bit for bit. q may be nil for the empty basis;
// neither argument is mutated.
func ExtendOrthonormal(q, a *Dense) *Dense {
	m := a.rows
	nq := 0
	if q != nil {
		if q.rows != m {
			panic(fmt.Sprintf("mat: ExtendOrthonormal basis has %d rows, columns have %d", q.rows, m))
		}
		nq = q.cols
	}
	cols := make([][]float64, 0, nq+a.cols)
	for j := 0; j < nq; j++ {
		cols = append(cols, q.Col(j))
	}
	for j := 0; j < a.cols; j++ {
		v := a.Col(j)
		// Modified Gram–Schmidt with reorthogonalization pass.
		for pass := 0; pass < 2; pass++ {
			for _, u := range cols {
				c := Dot(u, v)
				for i := range v {
					v[i] -= c * u[i]
				}
			}
		}
		n := Norm2(v)
		if n <= 1e-10*math.Sqrt(float64(m)) {
			continue // dependent column
		}
		for i := range v {
			v[i] /= n
		}
		cols = append(cols, v)
	}
	out := NewDense(m, len(cols))
	for j, v := range cols {
		out.SetCol(j, v)
	}
	return out
}
