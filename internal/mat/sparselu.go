package mat

import (
	"fmt"
	"math"
	"slices"
)

// SparseLU is a direct factorization P A Pᵀ = L U of a square sparse
// matrix whose pattern is symmetric, or nearly so: the ordering and the
// fill are computed on the pattern of A + Aᵀ, the values need not be
// symmetric. P is a minimum-degree ordering of that graph, chosen to
// keep the fill of L and U small, and the elimination pivots on the
// diagonal in that order. Power-flow Jacobians and reduced B matrices
// have symmetric patterns and diagonals that dominate their rows, so
// diagonal pivots need no row exchanges.
//
// The zero value is ready to use. Factor chooses the ordering on its
// first call and keeps it while later matrices share the pattern, as
// the Jacobians of one Newton solve do.
type SparseLU struct {
	// The pattern the ordering was chosen for.
	n              int
	rowPtr, colIdx []int

	perm, iperm []int // perm[k] is the row/column of A eliminated k-th
	// L (unit lower) and U (upper, diagonal apart) in CSR form over the
	// permuted indices; U's rows double as L's column patterns.
	lPtr, lIdx []int
	lVal       []float64
	uPtr, uIdx []int
	uVal       []float64
	diag       []float64
	w          []float64 // elimination workspace, zero between rows
}

// Factor computes the factorization of a. It returns ErrSingular when a
// pivot is zero or not finite, which includes a structurally singular
// or islanded system; Solve is valid only after a Factor that succeeded.
func (f *SparseLU) Factor(a *Sparse) error {
	if a.cols != a.rows {
		return fmt.Errorf("mat: SparseLU.Factor requires square matrix, got %dx%d", a.rows, a.cols)
	}
	if f.perm == nil || a.rows != f.n || !slices.Equal(a.rowPtr, f.rowPtr) || !slices.Equal(a.colIdx, f.colIdx) {
		f.analyse(a)
	}
	// Up-looking elimination, one row at a time: scatter row i of P A Pᵀ
	// into w, eliminate it against the finished rows its L pattern
	// names, in ascending order, and gather the result. The symbolic
	// pattern holds every fill entry, so w is zero again afterwards.
	w := f.w
	for i := 0; i < f.n; i++ {
		r := f.perm[i]
		for p := a.rowPtr[r]; p < a.rowPtr[r+1]; p++ {
			w[f.iperm[a.colIdx[p]]] = a.vals[p]
		}
		for p := f.lPtr[i]; p < f.lPtr[i+1]; p++ {
			k := f.lIdx[p]
			l := w[k] / f.diag[k]
			f.lVal[p], w[k] = l, 0
			for q := f.uPtr[k]; q < f.uPtr[k+1]; q++ {
				w[f.uIdx[q]] -= l * f.uVal[q]
			}
		}
		d := w[i]
		if d == 0 || math.IsNaN(d) || math.IsInf(d, 0) { //gridlint:ignore floatcmp exact-zero pivot means singular, as in FactorLU
			clear(w)
			return fmt.Errorf("mat: zero or non-finite pivot %g at step %d: %w", d, i, ErrSingular)
		}
		f.diag[i], w[i] = d, 0
		for q := f.uPtr[i]; q < f.uPtr[i+1]; q++ {
			j := f.uIdx[q]
			f.uVal[q], w[j] = w[j], 0
		}
	}
	return nil
}

// analyse runs the minimum-degree elimination on the graph of the
// pattern of A + Aᵀ, recording each node's neighbours at the moment it
// is eliminated: those are the patterns of its U row and L column. It
// sets everything in f but the numeric values.
func (f *SparseLU) analyse(a *Sparse) {
	n := a.rows
	f.n, f.rowPtr, f.colIdx = n, a.rowPtr, a.colIdx
	// Each off-diagonal entry (i, j) lists j under i and i under j; the
	// symmetric half of the doubled capacity is left for fill.
	size := make([]int, n)
	for i := 0; i < n; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			if j := a.colIdx[p]; j != i {
				size[i]++
				size[j]++
			}
		}
	}
	buf := make([]int, 2*len(a.colIdx))
	adj := make([][]int, n)
	off := 0
	for i := range adj {
		adj[i] = buf[off : off : off+size[i]]
		off += size[i]
	}
	for i := 0; i < n; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			if j := a.colIdx[p]; j != i {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	// mark[x] == u records that x is in adj[u] (or is u) while u's list
	// is being rebuilt; nodes leave a list only when eliminated.
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	q := newDegreeQueue(n)
	for i := range adj {
		kept := adj[i][:0]
		for _, x := range adj[i] {
			if mark[x] != i {
				mark[x] = i
				kept = append(kept, x)
			}
		}
		adj[i] = kept
		q.insert(i, len(kept))
	}
	f.perm = make([]int, 0, n)
	for len(f.perm) < n {
		v := q.popMin()
		f.perm = append(f.perm, v)
		// Eliminating v joins its neighbours into a clique and drops v.
		nb := adj[v]
		for _, u := range nb {
			kept := adj[u][:0]
			for _, x := range adj[u] {
				if x != v {
					kept = append(kept, x)
					mark[x] = u
				}
			}
			mark[u] = u
			for _, x := range nb {
				if mark[x] != u {
					kept = append(kept, x)
					mark[x] = u
				}
			}
			adj[u] = kept
			q.remove(u)
			q.insert(u, len(kept))
		}
	}

	iperm := make([]int, n)
	for k, v := range f.perm {
		iperm[v] = k
	}
	f.iperm = iperm
	// U row k is the neighbour set of perm[k], renumbered; L row i lists
	// the k whose U row holds i, ascending because k is visited in order.
	f.uPtr = make([]int, n+1)
	f.lPtr = make([]int, n+1)
	for k, v := range f.perm {
		f.uPtr[k+1] = f.uPtr[k] + len(adj[v])
		for _, x := range adj[v] {
			f.lPtr[iperm[x]+1]++
		}
	}
	for i := 0; i < n; i++ {
		f.lPtr[i+1] += f.lPtr[i]
	}
	f.uIdx = make([]int, f.uPtr[n])
	f.lIdx = make([]int, f.lPtr[n])
	next := append([]int(nil), f.lPtr[:n]...)
	for k, v := range f.perm {
		for p, x := range adj[v] {
			j := iperm[x]
			f.uIdx[f.uPtr[k]+p] = j
			f.lIdx[next[j]] = k
			next[j]++
		}
	}
	f.lVal = make([]float64, len(f.lIdx))
	f.uVal = make([]float64, len(f.uIdx))
	f.diag = make([]float64, n)
	f.w = make([]float64, n)
}

// Solve solves A x = b with the factorization.
func (f *SparseLU) Solve(b []float64) ([]float64, error) {
	n := len(f.perm)
	if len(b) != n {
		return nil, fmt.Errorf("mat: SparseLU.Solve rhs length %d != %d", len(b), n)
	}
	y := make([]float64, n)
	for k, v := range f.perm {
		y[k] = b[v]
	}
	for i := 0; i < n; i++ {
		s := y[i]
		for p := f.lPtr[i]; p < f.lPtr[i+1]; p++ {
			s -= f.lVal[p] * y[f.lIdx[p]]
		}
		y[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for q := f.uPtr[i]; q < f.uPtr[i+1]; q++ {
			s -= f.uVal[q] * y[f.uIdx[q]]
		}
		y[i] = s / f.diag[i]
	}
	x := make([]float64, n)
	for k, v := range f.perm {
		x[v] = y[k]
	}
	return x, nil
}

// degreeQueue buckets the uneliminated nodes by degree, each bucket a
// doubly linked list, so a degree change and a minimum-degree pop are
// O(1) amortised. Ties go to the node most recently (re)inserted.
type degreeQueue struct {
	head            []int // head[d]: first node of degree d, or -1
	next, prev, deg []int
	min             int // no bucket below min is occupied
}

func newDegreeQueue(n int) *degreeQueue {
	q := &degreeQueue{head: make([]int, n), next: make([]int, n), prev: make([]int, n), deg: make([]int, n)}
	for d := range q.head {
		q.head[d] = -1
	}
	return q
}

func (q *degreeQueue) insert(v, d int) {
	q.deg[v], q.prev[v], q.next[v] = d, -1, q.head[d]
	if h := q.head[d]; h >= 0 {
		q.prev[h] = v
	}
	q.head[d] = v
	q.min = min(q.min, d)
}

func (q *degreeQueue) remove(v int) {
	if p := q.prev[v]; p >= 0 {
		q.next[p] = q.next[v]
	} else {
		q.head[q.deg[v]] = q.next[v]
	}
	if nx := q.next[v]; nx >= 0 {
		q.prev[nx] = q.prev[v]
	}
}

// popMin removes and returns a node of minimum degree; the queue must
// not be empty.
func (q *degreeQueue) popMin() int {
	for q.head[q.min] < 0 {
		q.min++
	}
	v := q.head[q.min]
	q.remove(v)
	return v
}
