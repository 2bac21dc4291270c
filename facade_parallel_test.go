package pmuoutage

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// fingerprintIgnoringWorkers seals a copy of the system's model with
// the Workers knob (runtime configuration, not learned state) zeroed in
// both the detector config and the embedded facade options, and returns
// the resulting content fingerprint. Equal fingerprints mean the
// learned state is byte-identical.
func fingerprintIgnoringWorkers(t *testing.T, s *System) string {
	t.Helper()
	dm := *s.model.dm
	dm.Config.Workers = 0
	opts := s.model.opts
	opts.Workers = 0
	extra, err := json.Marshal(modelMeta{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	dm.Extra = extra
	if err := dm.Seal(); err != nil {
		t.Fatal(err)
	}
	return dm.Fingerprint
}

// TestNewSystemWorkersEquivalence pins the facade determinism contract:
// a system trained with Workers=8 is indistinguishable from Workers=1.
func TestNewSystemWorkersEquivalence(t *testing.T) {
	base := Options{Case: "ieee14", TrainSteps: 12, Seed: 3, UseDC: true}
	seq := base
	seq.Workers = 1
	s1, err := NewSystem(seq)
	if err != nil {
		t.Fatal(err)
	}
	parl := base
	parl.Workers = 8
	s8, err := NewSystem(parl)
	if err != nil {
		t.Fatal(err)
	}
	// The learned state is compared at the artifact level: with the
	// Workers knob (the only intentional difference) masked out, the two
	// models must fingerprint identically.
	if f1, f8 := fingerprintIgnoringWorkers(t, s1), fingerprintIgnoringWorkers(t, s8); f1 != f8 {
		t.Fatalf("model trained with Workers=8 fingerprints %s, Workers=1 %s", f8, f1)
	}
	for _, e := range s1.ValidLines() {
		samples, err := s1.SimulateOutage([]int{e}, 1)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := s1.Detect(samples[0])
		if err != nil {
			t.Fatal(err)
		}
		r8, err := s8.Detect(samples[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r8) {
			t.Fatalf("line %d: detector trained with Workers=8 reports differently", e)
		}
	}
}

func TestNewSystemContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewSystemContext(ctx, Options{Case: "ieee14", TrainSteps: 12, UseDC: true}); err == nil {
		t.Fatal("cancelled context must abort NewSystemContext")
	}
}

func TestDetectBatchMatchesLoop(t *testing.T) {
	sys, err := NewSystem(Options{Case: "ieee14", TrainSteps: 12, Seed: 3, UseDC: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	for _, e := range sys.ValidLines()[:4] {
		s, err := sys.SimulateOutage([]int{e}, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Masked copies send every worker through per-sample plans for
		// the clusters they touch while others read the cached ones.
		samples = append(samples, s...)
		samples = append(samples, s[0].WithMissing(e%14), s[1].WithMissing(sys.Clusters()[0]...))
	}
	batch, err := sys.DetectBatch(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(samples) {
		t.Fatalf("batch returned %d reports for %d samples", len(batch), len(samples))
	}
	for i, smp := range samples {
		want, err := sys.Detect(smp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], want) {
			t.Fatalf("sample %d: batch report differs from sequential Detect", i)
		}
	}
}

func TestDetectBatchBadSample(t *testing.T) {
	sys, err := NewSystem(Options{Case: "ieee14", TrainSteps: 12, Seed: 3, UseDC: true})
	if err != nil {
		t.Fatal(err)
	}
	good, err := sys.SimulateOutage(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DetectBatch([]Sample{good[0], {Vm: []float64{1}, Va: []float64{0}}}); err == nil {
		t.Fatal("batch with a malformed sample must fail")
	}
}
