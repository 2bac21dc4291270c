// Package recovery implements the missing-data recovery approach the
// paper positions itself against (§II, [8]): exploiting the
// low-dimensionality of synchrophasor data to impute missing entries
// before running a complete-data application. SubspaceImpute fills one
// sample's missing entries from the column space of historical data (the
// online form used by recover-then-classify pipelines).
//
// The experiments use it to build the "recover, then classify"
// comparator whose latency and residual error motivate the paper's
// recovery-free design.
package recovery

import (
	"errors"
	"fmt"
	"math"

	"pmuoutage/internal/mat"
)

// ErrNoObservations is returned when nothing is observed to recover from.
var ErrNoObservations = errors.New("recovery: no observed entries")

// Basis learns a rank-k orthonormal basis for the column space of the
// historical window X (features x time), the "low-dimensionality" prior
// of [8]. k is clamped to the numerical rank.
func Basis(x *mat.Dense, k int) (*mat.Dense, error) {
	d, t := x.Dims()
	if d == 0 || t == 0 {
		return nil, fmt.Errorf("recovery: empty history matrix")
	}
	if k <= 0 {
		k = 1
	}
	svd := mat.FactorSVD(x)
	if r := svd.Rank(0); k > r {
		k = r
	}
	if k == 0 {
		return nil, fmt.Errorf("recovery: history matrix is zero")
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	return svd.U.SelectCols(idx), nil
}

// SubspaceImpute fills the missing entries of sample x (missing[i] true)
// by least-squares fitting the observed entries to the basis and reading
// the fit at the missing rows. The observed entries are returned
// unchanged. Returns ErrNoObservations if everything is missing.
func SubspaceImpute(basis *mat.Dense, x []float64, missing []bool) ([]float64, error) {
	d := basis.Rows()
	if len(x) != d || len(missing) != d {
		return nil, fmt.Errorf("recovery: sample/mask length %d/%d != basis rows %d", len(x), len(missing), d)
	}
	var obs []int
	for i, m := range missing {
		if !m {
			obs = append(obs, i)
		}
	}
	if len(obs) == 0 {
		return nil, ErrNoObservations
	}
	out := make([]float64, d)
	copy(out, x)
	if len(obs) == d {
		return out, nil
	}
	ub := basis.SelectRows(obs)
	xo := make([]float64, len(obs))
	for i, j := range obs {
		xo[i] = x[j]
	}
	// alpha = U_obs⁺ x_obs; rank deficiency (fewer observations than k)
	// is handled by the pseudo-inverse's minimum-norm solution.
	alpha := mat.PseudoInverse(ub).MulVec(xo)
	fit := basis.MulVec(alpha)
	for i, m := range missing {
		if m {
			out[i] = fit[i]
		}
	}
	return out, nil
}

// ImputeError returns the root-mean-square error of imputed entries
// against the ground truth, and the count of imputed entries.
func ImputeError(truth, imputed []float64, missing []bool) (float64, int) {
	var sum float64
	n := 0
	for i, m := range missing {
		if !m {
			continue
		}
		d := truth[i] - imputed[i]
		sum += d * d
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Sqrt(sum / float64(n)), n
}
