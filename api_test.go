package pmuoutage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestTypedErrors pins the sentinel taxonomy: every facade validation
// failure matches its sentinel through errors.Is, and Detect and
// Monitor.Ingest produce the identical error for the identical defect
// (they share one validation path).
func TestTypedErrors(t *testing.T) {
	if _, err := NewSystem(Options{Case: "bogus"}); !errors.Is(err, ErrUnknownCase) {
		t.Fatalf("unknown case error = %v", err)
	}

	sys := newQuickSystem(t)
	mon, err := sys.NewMonitor(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Sample{
		{Vm: []float64{1}, Va: []float64{0}},
		{Vm: make([]float64, 14), Va: make([]float64, 14), Missing: []int{14}},
		{Vm: make([]float64, 14), Va: make([]float64, 14), Missing: []int{-1}},
	}
	for i, smp := range bad {
		_, detErr := sys.Detect(smp)
		if !errors.Is(detErr, ErrBadSample) {
			t.Fatalf("bad sample %d: Detect error = %v", i, detErr)
		}
		_, ingErr := mon.Ingest(smp)
		if !errors.Is(ingErr, ErrBadSample) {
			t.Fatalf("bad sample %d: Ingest error = %v", i, ingErr)
		}
		if detErr.Error() != ingErr.Error() {
			t.Fatalf("bad sample %d: Detect says %q, Ingest says %q — validation paths diverged",
				i, detErr, ingErr)
		}
	}

	if _, err := sys.SimulateOutage([]int{sys.Buses() * 10}, 1); !errors.Is(err, ErrBadLine) {
		t.Fatalf("bad line error = %v", err)
	}
	if _, err := sys.SimulateOutage([]int{-1}, 1); !errors.Is(err, ErrBadLine) {
		t.Fatalf("negative line error = %v", err)
	}
}

// TestNonFiniteSampleRefused: a NaN, infinite or overflowing angle at a
// bus not marked missing makes the deviation energy non-finite. Detect
// and Monitor.Ingest refuse the sample with the same ErrBadSample error
// rather than report an outage, so no stream of such frames confirms an
// event. The same value at a bus marked missing is ignored: the normal
// sample still scores normal.
func TestNonFiniteSampleRefused(t *testing.T) {
	sys := newQuickSystem(t)
	normal, err := sys.SimulateOutage(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), 1e200} {
		smp := Sample{Vm: normal[0].Vm, Va: slices.Clone(normal[0].Va)}
		smp.Va[3] = v
		_, detErr := sys.Detect(smp)
		if !errors.Is(detErr, ErrBadSample) {
			t.Fatalf("angle %v: Detect error = %v, want ErrBadSample", v, detErr)
		}
		mon, err := sys.NewMonitor(3, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			ev, ingErr := mon.Ingest(smp)
			if ev != nil || !errors.Is(ingErr, ErrBadSample) {
				t.Fatalf("angle %v, frame %d: Ingest = %+v, %v, want ErrBadSample", v, i+1, ev, ingErr)
			}
			if ingErr.Error() != detErr.Error() {
				t.Fatalf("angle %v: Detect says %q, Ingest says %q", v, detErr, ingErr)
			}
		}
		rep, err := sys.Detect(smp.WithMissing(3))
		if err != nil || rep.Outage {
			t.Fatalf("angle %v at a missing bus: report %+v, error %v, want a normal report", v, rep, err)
		}
	}
}

// TestContextVariants: a cancelled context aborts every context-first
// entry point, and the context-free wrappers behave identically to a
// background context.
func TestContextVariants(t *testing.T) {
	sys := newQuickSystem(t)
	line := sys.ValidLines()[0]
	samples, err := sys.SimulateOutage([]int{line}, 2)
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewSystemContext(cancelled, Options{TrainSteps: 12, UseDC: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewSystemContext on cancelled ctx = %v", err)
	}
	if _, err := sys.DetectContext(cancelled, samples[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("DetectContext on cancelled ctx = %v", err)
	}
	if _, err := sys.DetectBatchContext(cancelled, samples); !errors.Is(err, context.Canceled) {
		t.Fatalf("DetectBatchContext on cancelled ctx = %v", err)
	}
	if _, err := sys.SimulateOutageContext(cancelled, []int{line}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulateOutageContext on cancelled ctx = %v", err)
	}
	if _, _, err := sys.EvaluateContext(cancelled, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateContext on cancelled ctx = %v", err)
	}

	got, err := sys.DetectContext(context.Background(), samples[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Detect(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("DetectContext(Background) differs from Detect")
	}
}

// TestEvaluateWorkerInvariance: EvaluateContext's per-line accumulators
// merge in fixed line order, so the scores are identical for every
// worker count.
func TestEvaluateWorkerInvariance(t *testing.T) {
	opts := Options{TrainSteps: 12, UseDC: true, Seed: 9}
	opts.Workers = 1
	seq, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	par4, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	ia1, fa1, err := seq.Evaluate(2)
	if err != nil {
		t.Fatal(err)
	}
	ia4, fa4, err := par4.EvaluateContext(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ia1 != ia4 || fa1 != fa4 {
		t.Fatalf("Evaluate depends on worker count: (%v,%v) vs (%v,%v)", ia1, fa1, ia4, fa4)
	}
}

// TestDrawMissingBoundaries pins the reliability model at its edges:
// r = 1 never drops a measurement, r → 0⁺ drops everything, and values
// outside (0, 1] are rejected.
func TestDrawMissingBoundaries(t *testing.T) {
	sys := newQuickSystem(t)
	for seed := int64(1); seed <= 5; seed++ {
		missing, err := sys.DrawMissing(1, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(missing) != 0 {
			t.Fatalf("r=1 seed=%d drew missing buses %v", seed, missing)
		}
	}
	missing, err := sys.DrawMissing(1e-300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != sys.Buses() {
		t.Fatalf("r→0⁺ drew %d of %d buses missing", len(missing), sys.Buses())
	}
	for i := 1; i < len(missing); i++ {
		if missing[i] <= missing[i-1] {
			t.Fatalf("missing indices not strictly increasing: %v", missing)
		}
	}
	for _, r := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := sys.DrawMissing(r, 1); err == nil {
			t.Fatalf("reliability %v accepted", r)
		}
	}
	// Deterministic in seed.
	a, err := sys.DrawMissing(0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.DrawMissing(0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("DrawMissing not deterministic: %v vs %v", a, b)
	}
}

// TestWithMissingDedup: WithMissing preserves existing indices in
// first-appearance order, collapses duplicates, and leaves the receiver
// untouched.
func TestWithMissingDedup(t *testing.T) {
	base := Sample{Vm: []float64{1, 2}, Va: []float64{3, 4}, Missing: []int{5, 2}}
	got := base.WithMissing(2, 7, 5, 7, 0)
	want := []int{5, 2, 7, 0}
	if !reflect.DeepEqual(got.Missing, want) {
		t.Fatalf("Missing = %v, want %v", got.Missing, want)
	}
	if !reflect.DeepEqual(base.Missing, []int{5, 2}) {
		t.Fatalf("receiver mutated: %v", base.Missing)
	}
	if &got.Vm[0] != &base.Vm[0] || &got.Va[0] != &base.Va[0] {
		t.Fatal("WithMissing must share the measurement slices, not copy them")
	}
	if out := (Sample{}).WithMissing(); out.Missing != nil {
		t.Fatalf("no-op WithMissing produced %v", out.Missing)
	}
}

// TestScoresMarshalMatchesBoxed: Scores.MarshalJSON writes the bytes
// json.Marshal gives the boxed form, each non-finite score as its
// string and every other as a float64, on random values, both 'e'
// cutoffs, signed zeros, subnormals, the extremes and the non-finite
// values, alone, nil and empty.
func TestScoresMarshalMatchesBoxed(t *testing.T) {
	boxed := func(s Scores) []byte {
		vals := make([]any, len(s))
		for i, v := range s {
			switch {
			case math.IsInf(v, 1):
				vals[i] = "+Inf"
			case math.IsInf(v, -1):
				vals[i] = "-Inf"
			case math.IsNaN(v):
				vals[i] = "NaN"
			default:
				vals[i] = v
			}
		}
		b, err := json.Marshal(vals)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	edges := Scores{
		0, math.Copysign(0, -1), 1, -1, 0.5, -3.25, 1e20, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		-1e-6, -math.Nextafter(1e-6, 0), -1e21, -math.Nextafter(1e21, 0),
		1e-7, 1.5e-9, 1e-10, 1e22, 1e100, 1e-100, 1e308, 1e-308,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(1))
	random := make(Scores, 2000)
	for i := range random {
		if i%2 == 0 {
			random[i] = math.Float64frombits(rng.Uint64()) // every exponent, NaN payloads included
		} else {
			random[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
	}
	inputs := []Scores{nil, {}, edges, random}
	for _, v := range edges {
		inputs = append(inputs, Scores{v})
	}
	for _, s := range inputs {
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := boxed(s); !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON(%v)\n got %s\nwant %s", s, got, want)
		}
	}
}

// TestScoresJSONRoundTrip: non-finite node scores survive the JSON wire
// format losslessly (plain JSON has no Inf/NaN).
func TestScoresJSONRoundTrip(t *testing.T) {
	in := Scores{0.5, math.Inf(1), math.Inf(-1), math.NaN(), -3.25}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Scores
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip changed length: %v", out)
	}
	for i := range in {
		same := in[i] == out[i] || (math.IsNaN(in[i]) && math.IsNaN(out[i]))
		if !same {
			t.Fatalf("score %d: %v -> %v", i, in[i], out[i])
		}
	}
	for _, bad := range []string{`["+Infinity"]`, `[true]`, `{"x":1}`} {
		var s Scores
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Fatalf("accepted %s", bad)
		}
	}
	if err := json.Unmarshal([]byte(`["what"]`), new(Scores)); !errors.Is(err, ErrBadScores) {
		t.Fatalf("unknown string error = %v", err)
	}
}
