package detect

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmuoutage/internal/cases"
)

// TestProximityRuleProperties drives the proximity rule of §IV-C with
// random score vectors, some entries +Inf (nodes no detection group can
// score), under random gap factors and candidate caps. The candidates
// must be sorted, at most MaxCandidates, include the best-scoring node,
// stay within GapFactor of its score and induce a connected subgraph —
// and equal the scan that probes grid.SubgraphConnected on every
// extension, which the neighbour test replaces.
func TestProximityRuleProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range []string{"ieee14", "ieee30", "ieee118"} {
		g, err := cases.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		det := &Detector{g: g, adj: adjacency(g)}
		for trial := 0; trial < 300; trial++ {
			det.cfg = Config{MaxCandidates: 1 + rng.Intn(10), GapFactor: 1 + 50*rng.Float64()}.withDefaults()
			scores := make([]float64, g.N())
			for i := range scores {
				switch r := rng.Float64(); {
				case r < 0.1:
					scores[i] = math.Inf(1)
				case r < 0.15:
					scores[i] = scores[rng.Intn(i+1)] // ties
				default:
					scores[i] = math.Exp(8 * rng.NormFloat64())
				}
			}
			cand := det.proximityRule(scores)
			best := argmin(scores)
			if best < 0 {
				if len(cand) != 0 {
					t.Fatalf("%s: all scores +Inf, candidates %v", name, cand)
				}
				continue
			}
			if !slices.IsSorted(cand) || len(cand) > det.cfg.MaxCandidates || !slices.Contains(cand, best) {
				t.Fatalf("%s: candidates %v: unsorted, over %d, or missing argmin %d",
					name, cand, det.cfg.MaxCandidates, best)
			}
			for _, c := range cand {
				if scores[c] > scores[best]*det.cfg.GapFactor {
					t.Fatalf("%s: candidate %d scores %g, beyond %g × best %g",
						name, c, scores[c], det.cfg.GapFactor, scores[best])
				}
			}
			if !g.SubgraphConnected(cand) {
				t.Fatalf("%s: candidates %v are not connected", name, cand)
			}
			if ref := subgraphProbeRule(det, scores); !slices.Equal(cand, ref) {
				t.Fatalf("%s: candidates %v, SubgraphConnected scan gives %v", name, cand, ref)
			}
		}
	}
}

// subgraphProbeRule is the proximity rule with connectivity decided by
// grid.SubgraphConnected on each extended prefix.
func subgraphProbeRule(det *Detector, scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case scores[a] < scores[b]:
			return -1
		case scores[a] > scores[b]:
			return 1
		}
		return 0
	})
	cand := []int{order[0]}
	for _, i := range order[1:] {
		if len(cand) >= det.cfg.MaxCandidates || scores[i] > scores[order[0]]*det.cfg.GapFactor {
			break
		}
		if next := append(slices.Clone(cand), i); det.g.SubgraphConnected(next) {
			cand = next
		}
	}
	slices.Sort(cand)
	return cand
}
