package detect

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmuoutage/internal/cases"
)

// ruleSpecials are the score values a hostile or degenerate model can
// hand the proximity rule beyond ordinary positive proximities: signed
// zeros, infinities, subnormals, and the largest float64, whose product
// with any GapFactor above one overflows to +Inf.
var ruleSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
}

// ruleScores draws n node scores: NaN at nanRate, then about 10% +Inf
// (nodes no detection group can score), 10% special values, 10% ties
// with an earlier score, 5% negative, and log-normal positive scores
// otherwise. A huge vector draws its positive scores near
// math.MaxFloat64, so that best·GapFactor overflows.
func ruleScores(rng *rand.Rand, n int, nanRate float64, huge bool) []float64 {
	scores := make([]float64, n)
	for i := range scores {
		if rng.Float64() < nanRate {
			scores[i] = math.NaN()
			continue
		}
		switch r := rng.Float64(); {
		case r < 0.1:
			scores[i] = math.Inf(1)
		case r < 0.2:
			scores[i] = ruleSpecials[rng.Intn(len(ruleSpecials))]
		case r < 0.3:
			scores[i] = scores[rng.Intn(i+1)] // ties
		case r < 0.35:
			scores[i] = -math.Exp(8 * rng.NormFloat64())
		case huge:
			scores[i] = math.MaxFloat64 * (0.5 + 0.5*rng.Float64())
		default:
			scores[i] = math.Exp(8 * rng.NormFloat64())
		}
	}
	return scores
}

// TestProximityRuleProperties drives the proximity rule of §IV-C with
// random score vectors under random gap factors and candidate caps:
// NaN at rates from none to nearly all, +Inf (nodes no detection group
// can score), ±0, −Inf, negative and subnormal scores, math.MaxFloat64
// and ties. Every vector's candidates must equal the stable-sort scan
// that probes grid.SubgraphConnected on every extension, which the
// rule's neighbour test replaces. For a vector without NaN they must
// also be sorted, at most MaxCandidates, include the best-scoring node,
// stay within GapFactor of its score (floored at the smallest positive
// float64) and induce a connected subgraph. A NaN compares neither
// below nor above anything, so a stable sort places it by position and
// only the oracle can say where.
func TestProximityRuleProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nanRates := []float64{0, 0, 0.01, 0.1, 0.5, 0.95}
	for _, name := range []string{"ieee14", "ieee30", "ieee118"} {
		g, err := cases.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		det := &Detector{g: g, adj: adjacency(g)}
		for trial := 0; trial < 600; trial++ {
			det.cfg = Config{MaxCandidates: 1 + rng.Intn(10), GapFactor: 1 + 50*rng.Float64()}.withDefaults()
			scores := ruleScores(rng, g.N(), nanRates[trial%len(nanRates)], trial%7 == 0)
			cand := det.proximityRule(scores)
			if ref := subgraphProbeRule(det, scores); !slices.Equal(cand, ref) {
				t.Fatalf("%s: scores %v: candidates %v, SubgraphConnected scan gives %v", name, scores, cand, ref)
			}
			if slices.ContainsFunc(scores, math.IsNaN) {
				continue
			}
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
			limit := max(scores[best], math.SmallestNonzeroFloat64) * det.cfg.GapFactor
			for _, c := range cand {
				if scores[c] > limit {
					t.Fatalf("%s: candidate %d scores %g, beyond %g × best %g",
						name, c, scores[c], det.cfg.GapFactor, scores[best])
				}
			}
			if !g.SubgraphConnected(cand) {
				t.Fatalf("%s: candidates %v are not connected", name, cand)
			}
		}
	}
}

// FuzzProximityRule feeds the proximity rule ieee118 node scores read
// as raw float64 bit patterns, NaN payloads included (a shorter input
// repeats its scores), under a MaxCandidates and a GapFactor taken from
// the input as a decoded model can carry them: any cap, and a finite
// factor above one. The candidates must equal the stable-sort oracle's
// on every input.
func FuzzProximityRule(f *testing.F) {
	g, err := cases.Load("ieee118")
	if err != nil {
		f.Fatal(err)
	}
	det := &Detector{g: g, adj: adjacency(g)}
	rng := rand.New(rand.NewSource(11))
	for _, nanRate := range []float64{0, 0.05, 0.5} {
		for _, huge := range []bool{false, true} {
			f.Add(6, 8.0, scoreBits(ruleScores(rng, g.N(), nanRate, huge)))
		}
	}
	f.Add(3, 1.5, scoreBits([]float64{math.NaN(), 1, math.Copysign(0, -1), 0, math.Inf(-1)}))
	f.Add(0, 2.0, scoreBits([]float64{math.Inf(1)}))
	f.Add(-1, math.MaxFloat64, scoreBits([]float64{math.Float64frombits(0x7ff0dead00000001), 2, 1}))
	f.Fuzz(func(t *testing.T, maxCandidates int, gapFactor float64, raw []byte) {
		if !(gapFactor > 1) || math.IsInf(gapFactor, 1) || len(raw) < 8 {
			return
		}
		words := len(raw) / 8
		scores := make([]float64, g.N())
		for i := range scores {
			scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(i%words):]))
		}
		det.cfg = Config{MaxCandidates: maxCandidates, GapFactor: gapFactor}
		if cand, ref := det.proximityRule(scores), subgraphProbeRule(det, scores); !slices.Equal(cand, ref) {
			t.Fatalf("MaxCandidates %d, GapFactor %g, scores %v: candidates %v, oracle %v",
				maxCandidates, gapFactor, scores, cand, ref)
		}
	})
}

// scoreBits lays scores out as little-endian float64 bit patterns.
func scoreBits(scores []float64) []byte {
	raw := make([]byte, 0, 8*len(scores))
	for _, s := range scores {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(s))
	}
	return raw
}

// subgraphProbeRule is the proximity rule as a stable sort under < and a
// scan that decides connectivity by grid.SubgraphConnected on each
// extended prefix: no candidates when the best score is +Inf, and the
// best score floored at the smallest positive float64 before GapFactor
// scales it.
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
	if len(order) == 0 || math.IsInf(scores[order[0]], 1) {
		return nil
	}
	best := scores[order[0]]
	if best <= 0 {
		best = math.SmallestNonzeroFloat64
	}
	cand := []int{order[0]}
	for _, i := range order[1:] {
		if len(cand) >= det.cfg.MaxCandidates || scores[i] > best*det.cfg.GapFactor {
			break
		}
		if next := append(slices.Clone(cand), i); det.g.SubgraphConnected(next) {
			cand = next
		}
	}
	slices.Sort(cand)
	return cand
}
