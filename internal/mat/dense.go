// Package mat implements the linear algebra needed by the outage
// detector: dense and sparse real matrices, LU factorization, a
// one-sided Jacobi singular value decomposition, and Moore–Penrose
// pseudo-inverses. It is self-contained (standard library only) and tuned
// for the moderate dimensions of power-grid phasor data (tens to a few
// hundred rows).
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns an r-by-c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData returns an r-by-c matrix backed by data (row major). The
// slice is used directly, not copied. len(data) must equal r*c.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetCol copies v into column j. len(v) must equal Rows.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d != rows %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// RawRow returns row i without copying. The caller must not resize it.
func (m *Dense) RawRow(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Mul returns the matrix product m*b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		arow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, a := range arow {
			if a == 0 { //gridlint:ignore floatcmp sparse multiply skips exact structural zeros only
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x.
func (m *Dense) MulVec(x []float64) []float64 {
	return m.MulVecTo(make([]float64, m.rows), x)
}

// MulVecTo stores the matrix-vector product m*x in out and returns it.
// out must have m.Rows() elements and must not alias x.
func (m *Dense) MulVecTo(out, x []float64) []float64 {
	if m.cols != len(x) || m.rows != len(out) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d into %d", m.rows, m.cols, len(x), len(out)))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// AddMat returns m + b as a new matrix.
func (m *Dense) AddMat(b *Dense) *Dense {
	m.sameDims(b, "AddMat")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// SubMat returns m - b as a new matrix.
func (m *Dense) SubMat(b *Dense) *Dense {
	m.sameDims(b, "SubMat")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out
}

// Scale returns s*m as a new matrix.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

func (m *Dense) sameDims(b *Dense, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// SelectRows returns the submatrix with the given rows, in order.
func (m *Dense) SelectRows(idx []int) *Dense {
	out := NewDense(len(idx), m.cols)
	for k, i := range idx {
		if i < 0 || i >= m.rows {
			panic(fmt.Sprintf("mat: SelectRows index %d out of range %d", i, m.rows))
		}
		copy(out.data[k*out.cols:(k+1)*out.cols], m.data[i*m.cols:(i+1)*m.cols])
	}
	return out
}

// SelectCols returns the submatrix with the given columns, in order.
func (m *Dense) SelectCols(idx []int) *Dense {
	out := NewDense(m.rows, len(idx))
	for i := 0; i < m.rows; i++ {
		src := m.data[i*m.cols : (i+1)*m.cols]
		dst := out.data[i*out.cols : (i+1)*out.cols]
		for k, j := range idx {
			if j < 0 || j >= m.cols {
				panic(fmt.Sprintf("mat: SelectCols index %d out of range %d", j, m.cols))
			}
			dst[k] = src[j]
		}
	}
	return out
}

// Equalf reports whether m and b have the same shape and all elements
// within tol of each other. It is the matrix oracle of the mat and
// subspace tests.
func (m *Dense) Equalf(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String formats the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.4g", m.At(i, j))
		}
	}
	sb.WriteByte(']')
	return sb.String()
}
