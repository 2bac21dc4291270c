package metrics

import (
	"math"
	"strings"
	"testing"

	"pmuoutage/internal/grid"
)

func lines(es ...int) []grid.Line {
	out := make([]grid.Line, len(es))
	for i, e := range es {
		out[i] = grid.Line(e)
	}
	return out
}

func TestEvalExactMatch(t *testing.T) {
	ia, fa := Eval(lines(3), lines(3))
	if ia != 1 || fa != 0 {
		t.Fatalf("ia=%v fa=%v", ia, fa)
	}
}

func TestEvalMiss(t *testing.T) {
	ia, fa := Eval(lines(3), lines(7))
	if ia != 0 || fa != 1 {
		t.Fatalf("ia=%v fa=%v", ia, fa)
	}
}

func TestEvalPartial(t *testing.T) {
	// Two true outages, detector finds one of them plus one wrong line.
	ia, fa := Eval(lines(1, 2), lines(2, 9))
	if math.Abs(ia-0.5) > 1e-15 || math.Abs(fa-0.5) > 1e-15 {
		t.Fatalf("ia=%v fa=%v", ia, fa)
	}
}

func TestEvalEmptyDetection(t *testing.T) {
	ia, fa := Eval(lines(1), nil)
	if ia != 0 || fa != 0 {
		t.Fatalf("ia=%v fa=%v (missed detection has no false alarm)", ia, fa)
	}
}

func TestEvalNormalConventions(t *testing.T) {
	// §V-C2: |F| = 0 and nothing detected -> IA 1, FA 0.
	ia, fa := Eval(nil, nil)
	if ia != 1 || fa != 0 {
		t.Fatalf("ia=%v fa=%v", ia, fa)
	}
	// |F| = 0 but something detected -> IA 0, FA 1.
	ia, fa = Eval(nil, lines(4))
	if ia != 0 || fa != 1 {
		t.Fatalf("ia=%v fa=%v", ia, fa)
	}
}

func TestEvalDuplicatesInDetection(t *testing.T) {
	// Duplicated detections must not double-count the intersection.
	ia, fa := Eval(lines(1), lines(1, 1))
	if ia != 1 {
		t.Fatalf("ia=%v", ia)
	}
	if fa != 0.5 {
		t.Fatalf("fa=%v (two reported, one distinct hit)", fa)
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	if a.IA() != 0 || a.FA() != 0 || a.N() != 0 {
		t.Fatal("fresh accumulator not zero")
	}
	a.Add(lines(1), lines(1)) // ia 1 fa 0
	a.Add(lines(1), lines(2)) // ia 0 fa 1
	if a.N() != 2 {
		t.Fatalf("N = %d", a.N())
	}
	if math.Abs(a.IA()-0.5) > 1e-15 || math.Abs(a.FA()-0.5) > 1e-15 {
		t.Fatalf("IA=%v FA=%v", a.IA(), a.FA())
	}
	a.AddScores(1, 0)
	if math.Abs(a.IA()-2.0/3) > 1e-15 {
		t.Fatalf("IA=%v", a.IA())
	}
	if !strings.Contains(a.String(), "IA=") {
		t.Fatal("String output malformed")
	}
}

// TestMerge: folding partial accumulators equals accumulating the same
// scores into one — the invariant EvaluateContext's parallel reduction
// rests on.
func TestMerge(t *testing.T) {
	var whole, left, right Accumulator
	scores := [][2]float64{{1, 0}, {0.5, 0.25}, {0, 1}, {0.75, 0.5}}
	for i, s := range scores {
		whole.AddScores(s[0], s[1])
		if i < 2 {
			left.AddScores(s[0], s[1])
		} else {
			right.AddScores(s[0], s[1])
		}
	}
	var merged Accumulator
	merged.Merge(left)
	merged.Merge(right)
	if merged.N() != whole.N() || merged.IA() != whole.IA() || merged.FA() != whole.FA() {
		t.Fatalf("merged %v != whole %v", &merged, &whole)
	}
	// Merging an empty accumulator is a no-op.
	merged.Merge(Accumulator{})
	if merged.N() != whole.N() || merged.IA() != whole.IA() {
		t.Fatal("merging an empty accumulator changed the result")
	}
}
