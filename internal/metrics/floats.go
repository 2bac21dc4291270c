package metrics

import "math"

// Float comparison helpers enforced by gridlint's floatcmp analyzer:
// decision code (proximity scores, deviation-energy thresholds,
// capability probabilities) must not use exact ==/!= on floats, because
// exact equality silently flips under expression reordering or FMA
// contraction. These helpers make the tolerance explicit and testable.

// DefaultEps is the tolerance used by the detector stack for scores and
// probabilities, which live on O(1) scales after normalisation.
const DefaultEps = 1e-12

// NearZero reports |x| <= eps. NaN is never near zero.
func NearZero(x, eps float64) bool {
	return math.Abs(x) <= eps
}

// NearEqual reports whether a and b agree to within eps, measured
// relative to the larger magnitude but never tighter than eps itself
// (hybrid absolute/relative: |a-b| <= eps * max(1, |a|, |b|)). NaN
// compares unequal to everything, matching IEEE semantics. gridlint's
// floatcmp message names it as the remedy, and
// TestDetectThresholdBoundary checks Eq. 9's quadratic energy with it.
func NearEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //gridlint:ignore floatcmp exact fast path incl. equal infinities; inexact cases fall through
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // distinct infinities; eps*Inf would swallow the difference
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= eps*scale
}

// PositiveFloor clamps x up to floor, protecting denominators: ratios of
// residual energies stay finite when a restricted sample is (numerically)
// zero. NaN propagates unchanged so upstream bugs stay visible.
func PositiveFloor(x, floor float64) float64 {
	if x < floor {
		return floor
	}
	return x
}
