package mat

import (
	"math/rand"
	"testing"
)

// TestLeadingQuadWithoutAVX runs the path of an amd64 CPU without AVX,
// four FactorSVD calls, which the detected CPU may otherwise never
// take, and checks it against FactorSVD on a tall and a wide quad.
func TestLeadingQuadWithoutAVX(t *testing.T) {
	defer func(was bool) { useAVX = was }(useAVX)
	useAVX = false
	rng := rand.New(rand.NewSource(13))
	for _, dims := range [][2]int{{30, 8}, {6, 11}} {
		var a [4]*Dense
		for l := range a {
			a[l] = randDense(rng, dims[0], dims[1])
		}
		checkQuad(t, "without AVX", a, 2, false)
	}
}
