// Package subspace implements the subspace machinery of §IV: learning a
// signature subspace per outage case from the SVD of its data matrix
// (Eq. 2), composing them into node-based union and intersection
// subspaces (Eq. 3), and estimating the proximity of a (possibly
// incomplete) test sample to a subspace using only the rows of a
// detection group (Eq. 9) with the ratio scaling of Eq. (11).
//
// All data are handled as deviations from the normal-operation mean:
// with the linear model X = Y⁺P of Eq. (1), a topology change rotates
// the operating point, so the deviation of an outage sample from the
// normal mean concentrates along a case-specific direction. Those
// directions are exactly what the SVD extracts. The normal-operation
// subspace S⁰ is the zero subspace in deviation space — proximity to it
// is simply the squared deviation magnitude — which makes Eq. (11) a
// well-defined ratio.
package subspace

import (
	"errors"
	"fmt"
	"math"

	"pmuoutage/internal/mat"
)

// Subspace is a linear subspace of the feature space with an orthonormal
// basis stored column-wise (d rows, k columns). An empty basis (k = 0)
// is the zero subspace, used for S⁰.
type Subspace struct {
	basis *mat.Dense
}

// ErrNoData is returned when learning from an empty matrix.
var ErrNoData = errors.New("subspace: no data")

// Zero returns the zero subspace of dimension d — the paper's S⁰ in
// deviation coordinates.
func Zero(d int) *Subspace {
	return &Subspace{basis: mat.NewDense(d, 0)}
}

// FromBasis wraps an already-orthonormal basis. The matrix is used
// directly; callers must not mutate it afterwards.
func FromBasis(b *mat.Dense) *Subspace { return &Subspace{basis: b} }

// Dim returns the ambient dimension d.
func (s *Subspace) Dim() int { return s.basis.Rows() }

// Rank returns the subspace dimension k.
func (s *Subspace) Rank() int { return s.basis.Cols() }

// Basis returns the orthonormal basis (d x k). Callers must not mutate.
func (s *Subspace) Basis() *mat.Dense { return s.basis }

// Learn extracts the k-dimensional signature subspace from a data matrix
// X (features x time) of deviation samples via the SVD of Eq. (2),
// keeping the left singular vectors with the largest singular values.
// k is clamped to the numerical rank of X.
func Learn(x *mat.Dense, k int) (*Subspace, error) {
	if d, t := x.Dims(); d == 0 || t == 0 {
		return nil, ErrNoData
	}
	return leading(mat.FactorSVD(x), k), nil
}

// LearnQuad is Learn on four data matrices, whose SVDs run together
// through mat.LeadingQuad: each subspace is Learn's, bit for bit, and
// four matrices of one shape take little more than the time of one.
func LearnQuad(x [4]*mat.Dense, k int) ([4]*Subspace, error) {
	var out [4]*Subspace
	for _, a := range x {
		if d, t := a.Dims(); d == 0 || t == 0 {
			return out, ErrNoData
		}
	}
	for l, b := range mat.LeadingQuad(x, k) {
		out[l] = &Subspace{basis: b}
	}
	return out, nil
}

// leading is Learn's subspace of an SVD: its first k left singular
// vectors, k at least 1 and at most the numerical rank (mat's Leading).
func leading(svd *mat.SVD, k int) *Subspace {
	return &Subspace{basis: svd.Leading(k)}
}

// Union returns the smallest subspace containing all the given
// subspaces: the linear span of the paper's S_i^∪ over the outage
// subspaces of node i's lines, whose coordinates Intersection works in.
// The bases are concatenated and orthonormalised.
func Union(subs ...*Subspace) (*Subspace, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("subspace: Union of nothing")
	}
	d := subs[0].Dim()
	total := 0
	for _, s := range subs {
		if s.Dim() != d {
			return nil, fmt.Errorf("subspace: Union dimension mismatch %d vs %d", s.Dim(), d)
		}
		total += s.Rank()
	}
	if total == 0 {
		return Zero(d), nil
	}
	cat := mat.NewDense(d, total)
	j := 0
	for _, s := range subs {
		for c := 0; c < s.Rank(); c++ {
			cat.SetCol(j, s.basis.Col(c))
			j++
		}
	}
	return &Subspace{basis: mat.Orthonormalize(cat)}, nil
}

// Intersection returns the directions shared by all the given subspaces
// — the paper's S_i^∩. Exact intersections of generic signature
// subspaces are empty, so the implementation returns the near-common
// directions: eigenvectors of the averaged projector P̄ = (1/m) Σ U_j U_jᵀ
// with eigenvalue at least minShare (1.0 demands exact membership in all
// subspaces; the detector uses ~0.6). If no direction qualifies, the
// single most-shared direction is returned, matching the paper's intent
// that S_i^∩ captures "the impact of node i and all its possible
// outages".
func Intersection(minShare float64, subs ...*Subspace) (*Subspace, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("subspace: Intersection of nothing")
	}
	d := subs[0].Dim()
	if minShare <= 0 || minShare > 1 {
		minShare = 0.6
	}
	for _, s := range subs {
		if s.Dim() != d {
			return nil, fmt.Errorf("subspace: Intersection dimension mismatch %d vs %d", s.Dim(), d)
		}
	}
	// The averaged projector P̄ = (1/m) Σ U_j U_jᵀ has its range inside
	// the span W of the union of the subspaces, so its eigenproblem can
	// be solved in W's coordinates: M = Wᵀ P̄ W is r×r with r = rank(W),
	// typically a handful, instead of the d×d ambient problem.
	w, err := Union(subs...)
	if err != nil {
		return nil, err
	}
	r := w.Rank()
	if r == 0 {
		return Zero(d), nil
	}
	wt := w.basis.T()
	m := mat.NewDense(r, r)
	nonzero := 0
	for _, s := range subs {
		if s.Rank() == 0 {
			continue
		}
		nonzero++
		c := wt.Mul(s.basis) // r x k
		m = m.AddMat(c.Mul(c.T()))
	}
	if nonzero == 0 {
		return Zero(d), nil
	}
	m = m.Scale(1 / float64(nonzero))
	svd := mat.FactorSVD(m)
	// M is symmetric PSD: singular values are its eigenvalues, in [0,1].
	var keep []int
	for i, v := range svd.S {
		if v >= minShare-1e-12 {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		keep = []int{0} // most-shared direction fallback
	}
	return &Subspace{basis: w.basis.Mul(svd.U.SelectCols(keep))}, nil
}

// The restricted factors are stored in quads of rows: rows 4b…4b+3 of
// a matrix of c columns lie together, column by column, element (i, j)
// at index quadAt(i, j, c), and zero rows fill the last quad. A column's
// four rows of one quad fill one 256-bit register, which is how the
// AVX lanes (packed_amd64.s) read them, and the Go loops read the same
// layout.
func quadAt(i, j, c int) int { return i&^3*c + 4*j + i&3 }

// roundQuad is n rounded up to a multiple of four.
func roundQuad(n int) int { return (n + 3) &^ 3 }

// quadRows stores a matrix in quads of rows.
func quadRows(a *mat.Dense) []float64 {
	r, c := a.Dims()
	out := make([]float64, roundQuad(r)*c)
	for i := 0; i < r; i++ {
		for j, v := range a.RawRow(i) {
			out[quadAt(i, j, c)] = v
		}
	}
	return out
}

// Restricted is a subspace's basis restricted to the rows of one
// detection group, U_D, together with its pseudo-inverse (U_D)⁺: the
// part of a restricted residual that depends only on the group, and the
// only costly step. It is immutable and safe for concurrent use.
type Restricted struct {
	rows, rank int
	pinv       []float64 // (U_D)⁺, rank×rows in quads of rows; nil for the zero subspace
	ud         []float64 // U_D, rows×rank in quads of rows
}

// Restrict selects the group's rows of the basis and takes their
// pseudo-inverse. group indexes features (not buses).
func (s *Subspace) Restrict(group []int) (*Restricted, error) {
	r := &Restricted{rows: len(group), rank: s.Rank()}
	if s.Rank() == 0 {
		return r, nil
	}
	for _, i := range group {
		if i < 0 || i >= s.Dim() {
			return nil, fmt.Errorf("subspace: group index %d out of range %d", i, s.Dim())
		}
	}
	ud := s.basis.SelectRows(group)
	r.ud, r.pinv = quadRows(ud), quadRows(mat.PseudoInverse(ud))
	return r, nil
}

// stackRank is the largest subspace rank whose least-squares
// coefficients ResidualTo keeps on the stack; larger ranks allocate
// them.
const stackRank = 8

// ResidualTo writes the residual xd − U_D (U_D)⁺ xd of a vector indexed
// like the group Restrict was given into dst; the Eq. (9) proximity of
// xd is its energy, the square of mat.Norm2(dst), which callers that use
// it take. For the zero subspace the residual is xd itself. dst must
// have len(xd) elements and must not alias xd. The coefficients
// (coefficients) and each row's fit (residualRows) are summed in
// Dense.MulVec's order, so the residual keeps the bits of the
// allocating MulVec formulation.
func (r *Restricted) ResidualTo(dst, xd []float64) error {
	if len(xd) != r.rows || len(dst) != r.rows {
		return fmt.Errorf("subspace: restricted vector length %d into %d, group %d", len(xd), len(dst), r.rows)
	}
	if r.rank == 0 {
		copy(dst, xd)
		return nil
	}
	var buf [stackRank]float64
	alpha := buf[:]
	if k := roundQuad(r.rank); k <= stackRank {
		alpha = alpha[:k]
	} else {
		alpha = make([]float64, k)
	}
	coefficients(alpha, r.pinv, xd)
	residualRows(dst, xd, r.ud, alpha[:r.rank])
	return nil
}

// Packed is several subspaces restricted to the rows of one detection
// group and laid out for one pass over a vector: the members'
// pseudo-inverse rows (U_D)⁺, one member after another, in quads of
// rows, and their restricted bases U_D, side by side row by row. Rank-one
// members come first, then those of higher rank, each kind in member
// order; the zero subspace has no rows or columns. EnergiesTo measures
// each member's residual energy of the vector in that pass, bit for bit
// what Restrict(group), ResidualTo and mat.Norm2 give. It is immutable
// and safe for concurrent use.
type Packed struct {
	rows    int
	members int
	slots   []int     // the member packed in each slot
	ranks   []int     // each slot's rank
	ones    int       // the rank-one slots, which come first
	stride  int       // the sum of ranks rounded up to a multiple of four
	pinv    []float64 // stride×rows in quads of rows: each slot's (U_D)⁺ rows in slot order, then zero rows
	basis   []float64 // rows×stride, row-major: row i holds each slot's row i of U_D, then zeros
	zero    bool      // some member is the zero subspace
}

// Pack restricts each subspace to the group's rows, as Restrict does,
// and packs the restrictions. A rank-one member is restricted in closed
// form, its pseudo-inverse by mat.PseudoInverseColumn; members of
// higher rank through mat.PseudoInverse, as Restrict does. group
// indexes features (not buses).
func Pack(group []int, subs ...*Subspace) (*Packed, error) {
	m := len(group)
	p := &Packed{rows: m, members: len(subs)}
	total := 0
	for j, s := range subs {
		if s.Rank() == 0 {
			p.zero = true
			continue
		}
		for _, i := range group {
			if i < 0 || i >= s.Dim() {
				return nil, fmt.Errorf("subspace: group index %d out of range %d", i, s.Dim())
			}
		}
		if s.Rank() == 1 {
			p.slots = append(p.slots, j)
		}
		total += s.Rank()
	}
	p.ones = len(p.slots)
	for j, s := range subs {
		if s.Rank() > 1 {
			p.slots = append(p.slots, j)
		}
	}
	p.ranks = make([]int, len(p.slots))
	p.stride = roundQuad(total)
	buf := make([]float64, 2*p.stride*m)
	p.pinv, p.basis = buf[:p.stride*m], buf[p.stride*m:]
	col := make([]float64, m)
	o := 0
	for slot, j := range p.slots {
		s := subs[j]
		k := s.Rank()
		p.ranks[slot] = k
		if k == 1 {
			for r, i := range group {
				col[r] = s.basis.RawRow(i)[0]
				p.basis[r*p.stride+o] = col[r]
			}
			mat.PseudoInverseColumn(col, col)
			for r, v := range col {
				p.pinv[quadAt(o, r, m)] = v
			}
		} else {
			ud := s.basis.SelectRows(group)
			pinv := mat.PseudoInverse(ud)
			for t := 0; t < k; t++ {
				for r, v := range pinv.RawRow(t) {
					p.pinv[quadAt(o+t, r, m)] = v
				}
			}
			for r := 0; r < m; r++ {
				copy(p.basis[r*p.stride+o:r*p.stride+o+k], ud.RawRow(r))
			}
		}
		o += k
	}
	return p, nil
}

// Len returns the number of members.
func (p *Packed) Len() int { return p.members }

// ScratchLen returns the scratch EnergiesTo needs: one least-squares
// coefficient per basis column and a norm scale and sum of squares per
// member of rank above zero, each run rounded up to a multiple of four.
func (p *Packed) ScratchLen() int { return p.stride + 2*roundQuad(len(p.slots)) }

// errPackedShape reports vectors that do not fit a Packed. It is a
// sentinel so the kernel that returns it stays allocation-free.
var errPackedShape = errors.New("subspace: packed residual vectors do not match the group and members")

// EnergiesTo writes into dst, member by member, the residual energy
// ‖x − U_D (U_D)⁺ x‖² of a vector x indexed like the group; scratch
// must hold at least ScratchLen values. energy must be ‖x‖², the square
// of mat.Norm2(x), which the caller holds: EnergiesTo writes it for
// every zero-subspace member. coefficients forms the least-squares
// coefficients, four pinv rows at a time. rankOne then walks the
// group's rows once for the rank-one members, four at a time, forming
// each residual there and taking that member's mat.Norm2 step on it,
// and, when some member has a higher rank, a last walk does the same
// for those. Each member so sees the products, sums and norm steps of
// ResidualTo and mat.Norm2 in the same order, and its energy keeps
// their bits. EnergiesTo leaves the coefficients, then each slot's
// scale, then each slot's sum of squares at the front of scratch, each
// run as long as ScratchLen counts it.
//
//gridlint:zeroalloc
func (p *Packed) EnergiesTo(dst, scratch, x []float64, energy float64) error {
	m, n := p.rows, len(p.slots)
	n4 := roundQuad(n)
	if len(x) != m || len(dst) != p.members || len(scratch) < p.stride+2*n4 {
		return errPackedShape
	}
	alpha := scratch[:p.stride]
	scale, ssq := scratch[p.stride:p.stride+n4], scratch[p.stride+n4:p.stride+2*n4]
	coefficients(alpha, p.pinv, x)
	for slot := range scale {
		scale[slot], ssq[slot] = 0, 1
	}
	// The rank-one pass runs on whole quads of slots. The slots past the
	// rank-one ones in the last quad read padding or the first columns of
	// higher rank, and their state is reset below before any use.
	ones := roundQuad(p.ones)
	rankOne(scale[:ones], ssq[:ones], alpha[:ones], x, p.basis, p.stride)
	if p.ones < n {
		for slot := p.ones; slot < ones; slot++ {
			scale[slot], ssq[slot] = 0, 1
		}
		for i, v := range x {
			row := p.basis[i*p.stride : (i+1)*p.stride]
			o := p.ones
			for slot := p.ones; slot < n; slot++ {
				k := p.ranks[slot]
				var s float64
				for t, b := range row[o : o+k] {
					s += b * alpha[o+t]
				}
				o += k
				normStep(&scale[slot], &ssq[slot], v-s)
			}
		}
	}
	if p.zero {
		for k := range dst {
			dst[k] = energy
		}
	}
	for slot, k := range p.slots {
		var e float64
		if scale[slot] != 0 { //gridlint:ignore floatcmp mat.Norm2's result: the scale is exactly zero iff every residual was
			e = scale[slot] * math.Sqrt(ssq[slot])
		}
		dst[k] = e * e
	}
	return nil
}

// The Go loops below are the passes where the AVX kernels cannot run
// and, everywhere, the kernels' test oracles. Which operand of a sum or
// product comes first decides the NaN payload when both are NaN, and
// the Go compiler picks that order per compiled body. Sums kept in
// registers took it from register allocation: go1.24 put the product
// first in some or all of four register accumulators once a body was
// instrumented by the race detector or for fuzzing. Sums that load
// their accumulator from memory, at a variable index, add into the
// loaded value in every build probed (plain, -race, -cover and -fuzz),
// so each loop sums that way, and go:noinline keeps one body for every
// caller. The lanes reproduce that order.

// coefficientsGo is coefficients in Go: alpha[t] = Σ_j q_t[j]·x[j],
// summed from +0 in element order, for every row t of pinv, the four
// rows of a quad side by side. pinv holds len(alpha)/4 quads of len(x)
// columns (quadAt), and len(alpha) is a multiple of four.
//
//go:noinline
func coefficientsGo(alpha, pinv, x []float64) {
	m := len(x)
	for t := 0; t < len(alpha); t += 4 {
		q := pinv[t*m : (t+4)*m]
		var s [4]float64
		for j, v := range x {
			w := q[4*j : 4*j+4 : 4*j+4]
			for l := range s {
				s[l] += w[l] * v
			}
		}
		copy(alpha[t:t+4], s[:])
	}
}

// residualRowsGo is residualRows in Go: dst[i] = x[i] − Σ_t u_i[t]·α[t]
// for each row i of ud, the sum from +0 in column order, as
// Dense.MulVecTo and ResidualTo's subtraction form it, the four rows of
// a quad side by side. ud holds the len(x) rows of len(alpha) columns
// in quads of rows (quadAt).
//
//go:noinline
func residualRowsGo(dst, x, ud, alpha []float64) {
	k := len(alpha)
	for i := 0; i < len(x); i += 4 {
		u := ud[i*k : (i+4)*k]
		var s [4]float64
		for t, a := range alpha {
			w := u[4*t : 4*t+4 : 4*t+4]
			for l := range s {
				s[l] += w[l] * a
			}
		}
		for l, v := range x[i:min(i+4, len(x))] {
			dst[i+l] = v - s[l]
		}
	}
}

// rankOneGo is rankOne in Go: row by row, each rank-one slot's normStep
// on its residual x[i] − basis[i*stride+slot]·alpha[slot]. scale, ssq
// and alpha hold one entry per slot, and basis holds len(x) rows of
// stride entries, the rank-one slots first.
//
//go:noinline
func rankOneGo(scale, ssq, alpha, x, basis []float64, stride int) {
	ones := len(scale)
	for i, v := range x {
		for slot, b := range basis[i*stride : i*stride+ones] {
			// MulVecTo sums 0 + b·α; the two differ only in the sign of
			// a zero residual, which the norm skips.
			normStep(&scale[slot], &ssq[slot], v-b*alpha[slot])
		}
	}
}

// normStep is one element's step of mat.Norm2's scaled sum of squares.
func normStep(scale, ssq *float64, r float64) {
	if r == 0 { //gridlint:ignore floatcmp mat.Norm2 skips exact zeros to keep the scale well-defined
		return
	}
	ar := math.Abs(r)
	if *scale < ar {
		q := *scale / ar
		*ssq = 1 + *ssq*q*q
		*scale = ar
	} else {
		q := ar / *scale
		*ssq += q * q
	}
}

// ProjectOut returns the matrix whose columns are x's columns with their
// component in s removed (full-dimension projection, complete data).
// Used at training time to strip load variation from outage signatures.
func (s *Subspace) ProjectOut(x *mat.Dense) *mat.Dense {
	if s.Rank() == 0 {
		return x.Clone()
	}
	u := s.basis
	// x - U (Uᵀ x): basis is orthonormal in full dimension.
	ut := u.T()
	return x.SubMat(u.Mul(ut.Mul(x)))
}

// Proximity computes the Eq. (9) proximity of a deviation sample to the
// subspace using only the feature rows listed in group (the detection
// group D): the squared residual of projecting x_D onto the row-restricted
// basis U_D,
//
//	prox_S(x) = || x_D − U_D (U_D)⁺ x_D ||²₂ .
//
// For the zero subspace this degenerates to ||x_D||², the deviation
// energy — proximity to normal operation. group indexes features (not
// buses); callers map bus-level detection groups through the channel.
func (s *Subspace) Proximity(x []float64, group []int) (float64, error) {
	if len(x) != s.Dim() {
		return 0, fmt.Errorf("subspace: sample dim %d != %d", len(x), s.Dim())
	}
	if len(group) == 0 {
		return 0, fmt.Errorf("subspace: empty detection group")
	}
	xd := make([]float64, len(group))
	for k, i := range group {
		if i < 0 || i >= len(x) {
			return 0, fmt.Errorf("subspace: group index %d out of range %d", i, len(x))
		}
		xd[k] = x[i]
	}
	if s.Rank() == 0 {
		n := mat.Norm2(xd)
		return n * n, nil
	}
	ud := s.basis.SelectRows(group)
	// Least-squares coefficients alpha = U_D⁺ x_D via the pseudo-inverse
	// (U_D is not orthonormal after row selection).
	alpha := mat.PseudoInverse(ud).MulVec(xd)
	res := mat.Sub(xd, ud.MulVec(alpha))
	n := mat.Norm2(res)
	return n * n, nil
}

// Regressor returns the Eq. (9) regressor matrix
// Φ(S) = −(S(D)ᵀ)⁺ S(N\D)ᵀ, mapping detection-group coordinates to the
// complement rows, per the model-identification construction of [12].
// It is exposed for the ablation study comparing the literal regressor
// formulation against the projection residual used by Proximity.
func (s *Subspace) Regressor(group []int) (*mat.Dense, error) {
	if s.Rank() == 0 {
		return nil, fmt.Errorf("subspace: zero subspace has no regressor")
	}
	d := s.Dim()
	in := make([]bool, d)
	for _, i := range group {
		if i < 0 || i >= d {
			return nil, fmt.Errorf("subspace: group index %d out of range %d", i, d)
		}
		in[i] = true
	}
	var rest []int
	for i := 0; i < d; i++ {
		if !in[i] {
			rest = append(rest, i)
		}
	}
	sd := s.basis.SelectRows(group) // S(D): |D| x k
	sr := s.basis.SelectRows(rest)  // S(N\D): |rest| x k
	phi := mat.PseudoInverse(sd.T()).Mul(sr.T()).Scale(-1)
	return phi, nil
}

// RegressorProximity is the ablation variant of Proximity: it first
// reconstructs the complement rows with the Eq. (9) regressor, then
// measures the full-vector projection residual of the completed sample.
func (s *Subspace) RegressorProximity(x []float64, group []int) (float64, error) {
	if s.Rank() == 0 {
		return s.Proximity(x, group)
	}
	d := s.Dim()
	phi, err := s.Regressor(group)
	if err != nil {
		return 0, err
	}
	in := make([]bool, d)
	for _, i := range group {
		in[i] = true
	}
	var rest []int
	for i := 0; i < d; i++ {
		if !in[i] {
			rest = append(rest, i)
		}
	}
	xd := make([]float64, len(group))
	for k, i := range group {
		xd[k] = x[i]
	}
	full := make([]float64, d)
	for k, i := range group {
		full[i] = xd[k]
	}
	if len(rest) > 0 {
		// Φ has shape k x |rest| after the transposes; reconstruct via
		// xr = -Φᵀ ... the construction keeps x in the subspace's row
		// relation: S(rest)ᵀ xr ≈ -S(D)ᵀ xd, i.e. xr = Φᵀ xd.
		xr := phi.T().MulVec(xd)
		for k, i := range rest {
			full[i] = xr[k]
		}
	}
	// Full-dimension projection residual with the orthonormal basis.
	u := s.basis
	alpha := u.T().MulVec(full)
	res := mat.Sub(full, u.MulVec(alpha))
	n := mat.Norm2(res)
	return n * n, nil
}

// ScaledProximity applies Eq. (11): the union proximity scaled by the
// intersection/normal ratio,
//
//	p̂rox_{S_i^∪}(x) = prox_{S_i^∪}(x) · prox_{S_i^∩}(x) / prox_{S⁰}(x).
//
// A tiny floor keeps the ratio finite when the sample sits exactly on
// the normal operating point.
func ScaledProximity(union, inter, normal float64) float64 {
	const floor = 1e-18
	if normal < floor {
		normal = floor
	}
	return union * inter / normal
}
