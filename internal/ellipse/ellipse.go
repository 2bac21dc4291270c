// Package ellipse fits the per-node normal-operation ellipses of Eq. (4)
// in the paper: for node i, all normal-operation phasor points
// x_{i,t} = (Vm_i, Va_i) ∈ R² must satisfy (x-c)ᵀ A (x-c) ≤ 1. A point
// falling outside its node's ellipse is the elementary outage-detection
// event that the capability learning of Eqs. (5)–(7) counts.
package ellipse

import (
	"errors"
	"math"

	"pmuoutage/internal/metrics"
)

// Ellipse is the set Ω = {x ∈ R² : (x-c)ᵀ A (x-c) ≤ 1} with A symmetric
// positive definite.
type Ellipse struct {
	// C is the center.
	C [2]float64
	// A is the symmetric shape matrix [[a11, a12], [a12, a22]].
	A [3]float64 // packed: a11, a12, a22
}

// ErrTooFewPoints is returned when a fit has fewer than two points.
var ErrTooFewPoints = errors.New("ellipse: need at least 2 points to fit")

// Fit computes a covariance-scaled enclosing ellipse: center at the
// sample mean, shape from the inverse sample covariance, scaled so every
// training point lies inside with the given margin (margin 1.0 means the
// farthest training point sits exactly on the boundary; the detector
// uses a small slack like 1.1 so normal noise stays inside).
//
// Degenerate directions (zero variance — e.g. the slack bus angle) are
// regularised with a floor so the ellipse stays proper.
func Fit(vm, va []float64, margin float64) (*Ellipse, error) {
	n := len(vm)
	if n < 2 || len(va) != n {
		return nil, ErrTooFewPoints
	}
	if margin <= 0 {
		margin = 1.1
	}
	var cx, cy float64
	for i := 0; i < n; i++ {
		cx += vm[i]
		cy += va[i]
	}
	cx /= float64(n)
	cy /= float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx := vm[i] - cx
		dy := va[i] - cy
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	sxx /= float64(n)
	sxy /= float64(n)
	syy /= float64(n)
	// Variance floor: a tiny fraction of typical per-unit noise keeps
	// constant coordinates (slack angle, DC magnitudes) well-posed.
	const floor = 1e-10
	if sxx < floor {
		sxx = floor
	}
	if syy < floor {
		syy = floor
	}
	// Keep the covariance positive definite.
	maxCross := math.Sqrt(sxx*syy) * 0.999
	if sxy > maxCross {
		sxy = maxCross
	}
	if sxy < -maxCross {
		sxy = -maxCross
	}
	det := sxx*syy - sxy*sxy
	// Inverse covariance.
	i11 := syy / det
	i12 := -sxy / det
	i22 := sxx / det
	// Max Mahalanobis distance over the training points.
	var maxD float64
	for i := 0; i < n; i++ {
		dx := vm[i] - cx
		dy := va[i] - cy
		d := i11*dx*dx + 2*i12*dx*dy + i22*dy*dy
		if d > maxD {
			maxD = d
		}
	}
	maxD = metrics.PositiveFloor(maxD, floor)
	s := 1 / (maxD * margin * margin)
	return &Ellipse{
		C: [2]float64{cx, cy},
		A: [3]float64{i11 * s, i12 * s, i22 * s},
	}, nil
}

// Quad returns the quadratic form (x-c)ᵀ A (x-c); values ≤ 1 are inside.
func (e *Ellipse) Quad(x, y float64) float64 {
	dx := x - e.C[0]
	dy := y - e.C[1]
	return e.A[0]*dx*dx + 2*e.A[1]*dx*dy + e.A[2]*dy*dy
}

// Contains reports whether the point is inside or on the ellipse — the
// membership test x_{i,t} ∈ Ω_i of Eq. (4).
func (e *Ellipse) Contains(x, y float64) bool { return e.Quad(x, y) <= 1 }

// Axes returns the semi-axis lengths (major, minor) of the ellipse.
// TestAxesOrdered, TestAxesCircle, TestMVEETighterThanCovarianceFit and
// TestMVEEKnownSquare probe the shapes Fit and FitMVEE return with it.
func (e *Ellipse) Axes() (float64, float64) {
	// Eigenvalues of A; semi-axes are 1/sqrt(lambda).
	tr := e.A[0] + e.A[2]
	det := e.A[0]*e.A[2] - e.A[1]*e.A[1]
	disc := math.Sqrt(math.Max(0, tr*tr/4-det))
	l1 := tr/2 + disc
	l2 := tr/2 - disc
	if l2 <= 0 {
		l2 = math.SmallestNonzeroFloat64
	}
	return 1 / math.Sqrt(l2), 1 / math.Sqrt(l1)
}
