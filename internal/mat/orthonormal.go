package mat

import "math"

// Orthonormalize returns an orthonormal basis for the column space of a:
// each column, in order, is orthogonalised against the directions
// accepted so far with a two-pass modified Gram–Schmidt, dropped when
// numerically dependent, and normalised otherwise. The result has the
// same number of rows as a and at most min(rows, cols) columns; a is not
// mutated.
func Orthonormalize(a *Dense) *Dense {
	m := a.rows
	cols := make([][]float64, 0, a.cols)
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
