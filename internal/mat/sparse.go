package mat

import (
	"fmt"
	"sort"
)

// Triplet is one coordinate-format entry used to assemble sparse
// matrices. Duplicate (Row, Col) entries are summed on assembly, which
// matches how powerflow stamps branch contributions into Y-bus-like
// matrices.
type Triplet struct {
	Row, Col int
	Val      float64
}

// Sparse is a compressed sparse row (CSR) matrix. Row i's entries are
// cols[rowPtr[i]:rowPtr[i+1]] / vals[rowPtr[i]:rowPtr[i+1]], with
// column indices strictly increasing within each row.
type Sparse struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// NewSparse assembles an r-by-c CSR matrix from triplets. The input
// order is irrelevant to the structure: entries are sorted by (row, col)
// and duplicates are summed in input order. Entries that sum to exactly
// zero are kept — structure is decided by the triplets, not their
// values — so the pattern of an assembled Jacobian is stable across
// Newton iterations. Assembly buckets the triplets by row and keeps each
// row sorted by insertion, which suits the short rows of grid matrices.
func NewSparse(r, c int, trips []Triplet) *Sparse {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	s := &Sparse{
		rows:   r,
		cols:   c,
		rowPtr: make([]int, r+1),
		colIdx: make([]int, len(trips)),
		vals:   make([]float64, len(trips)),
	}
	for _, t := range trips {
		if t.Row < 0 || t.Row >= r || t.Col < 0 || t.Col >= c {
			panic(fmt.Sprintf("mat: triplet (%d,%d) out of range %dx%d", t.Row, t.Col, r, c))
		}
		s.rowPtr[t.Row+1]++
	}
	for i := 0; i < r; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	end := append([]int(nil), s.rowPtr[:r]...) // end of each row filled so far
	for _, t := range trips {
		lo, p := s.rowPtr[t.Row], end[t.Row]
		end[t.Row]++
		for ; p > lo && s.colIdx[p-1] > t.Col; p-- {
			s.colIdx[p], s.vals[p] = s.colIdx[p-1], s.vals[p-1]
		}
		s.colIdx[p], s.vals[p] = t.Col, t.Val
	}
	// Merge duplicates in place; a later duplicate sits after an earlier
	// one, so sums run in input order.
	w, lo := 0, 0
	for i := 0; i < r; i++ {
		hi, start := s.rowPtr[i+1], w
		for p := lo; p < hi; p++ {
			if w > start && s.colIdx[w-1] == s.colIdx[p] {
				s.vals[w-1] += s.vals[p]
				continue
			}
			s.colIdx[w], s.vals[w] = s.colIdx[p], s.vals[p]
			w++
		}
		s.rowPtr[i+1], lo = w, hi
	}
	s.colIdx, s.vals = s.colIdx[:w], s.vals[:w]
	return s
}

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.vals) }

// At returns the element at row i, column j (zero when not stored).
func (s *Sparse) At(i, j int) float64 {
	if i < 0 || i >= s.rows || j < 0 || j >= s.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, s.rows, s.cols))
	}
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	k := lo + sort.SearchInts(s.colIdx[lo:hi], j)
	if k < hi && s.colIdx[k] == j {
		return s.vals[k]
	}
	return 0
}

// ToDense expands the matrix to dense form.
func (s *Sparse) ToDense() *Dense {
	d := NewDense(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		row := d.RawRow(i)
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			row[s.colIdx[k]] = s.vals[k]
		}
	}
	return d
}
