package subspace

import "testing"

// TestScoringWithoutAVX runs the path of an amd64 CPU without AVX, the
// Go loops, which the detected CPU may otherwise never take:
// EnergiesTo against one Restrict, ResidualTo and mat.Norm2 per
// member, and ResidualTo against the allocating MulVec formulation.
// TestDetectGoldenWithoutAVX runs the facade's detection golden on it.
func TestScoringWithoutAVX(t *testing.T) {
	defer func(was bool) { useAVX = was }(useAVX)
	useAVX = false
	checkPackedMatchesResidualTo(t)
	checkResidualToMatchesMulVec(t)
}
