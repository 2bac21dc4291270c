package dataset

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/grid"
)

// fingerprint hashes every float of the generated data bit-exactly, in
// sequential order: the normal set, each outage set ascending by line,
// then the valid-line list. The golden constants below were produced by
// the first, sequential generator, so these tests pin later changes
// to the historical output, not just to itself.
func fingerprint(d *Data) string {
	h := sha256.New()
	add := func(set *Set) {
		for _, s := range set.Samples {
			for _, v := range s.Vm {
				binary.Write(h, binary.LittleEndian, math.Float64bits(v))
			}
			for _, v := range s.Va {
				binary.Write(h, binary.LittleEndian, math.Float64bits(v))
			}
		}
	}
	add(d.Normal)
	var lines []int
	for e := range d.Outages {
		lines = append(lines, int(e))
	}
	sort.Ints(lines)
	for _, e := range lines {
		binary.Write(h, binary.LittleEndian, int64(e))
		add(d.Outages[grid.Line(e)])
	}
	for _, e := range d.ValidLines {
		binary.Write(h, binary.LittleEndian, int64(e))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func TestGenerateGoldenFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("AC generation in -short")
	}
	for _, tc := range []struct {
		name   string
		cfg    GenConfig
		golden string
	}{
		{"ieee14-ac-6", GenConfig{Steps: 6, Seed: 1}, "bade84976607297d"},
		{"ieee14-dc-10", GenConfig{Steps: 10, Seed: 1, UseDC: true}, "cb671e8c79319266"},
	} {
		for _, workers := range []int{0, 1, 8} {
			cfg := tc.cfg
			cfg.Workers = workers
			d, err := GenerateContext(context.Background(), cases.IEEE14(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(d); got != tc.golden {
				t.Errorf("%s workers=%d: fingerprint %s, want pre-refactor golden %s",
					tc.name, workers, got, tc.golden)
			}
		}
	}
}

func TestGenerateWorkersEquivalence(t *testing.T) {
	g := cases.IEEE14()
	cfg := smallConfig()
	cfg.Workers = 1
	seq, err := GenerateContext(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parl, err := GenerateContext(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.ValidLines, parl.ValidLines) {
		t.Fatalf("valid lines differ: %v vs %v", seq.ValidLines, parl.ValidLines)
	}
	if !reflect.DeepEqual(seq.Normal, parl.Normal) {
		t.Fatal("normal sets differ between worker counts")
	}
	for _, e := range seq.ValidLines {
		if !reflect.DeepEqual(seq.OutageSet(e), parl.OutageSet(e)) {
			t.Fatalf("line %d sets differ between worker counts", e)
		}
	}
}

func TestGenerateContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateContext(ctx, cases.IEEE14(), smallConfig()); err == nil {
		t.Fatal("cancelled context must fail generation")
	}
	if _, err := GenerateScenarioContext(ctx, cases.IEEE14(), nil, smallConfig()); err == nil {
		t.Fatal("cancelled context must fail scenario generation")
	}
}

// cancelAfter is a context that reports context.Canceled from its
// (after+1)th Err call on, as a context cancelled while a scenario
// runs would. GenerateScenarioContext checks Err once per step.
type cancelAfter struct {
	context.Context
	calls, after int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestGenerateScenarioCancelledBetweenSteps: a DC scenario cancelled
// after three steps returns the context's error, not a scenario error
// or a short set, and solves no further step.
func TestGenerateScenarioCancelledBetweenSteps(t *testing.T) {
	cfg := GenConfig{Steps: 40, Seed: 1, UseDC: true}
	ctx := &cancelAfter{Context: context.Background(), after: 3}
	set, err := GenerateScenarioContext(ctx, cases.IEEE30(), Scenario{3}, cfg)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrInvalidScenario) || set != nil {
		t.Fatalf("cancelled after 3 steps: set %v, err %v; want nil and context.Canceled", set, err)
	}
	if ctx.calls != 4 {
		t.Fatalf("Err called %d times, want 4: the loop must stop at the first error", ctx.calls)
	}
}

// TestDCScenarioAllocs is the allocation ceiling of one 40-step ieee30
// DC scenario. Scenarios reuse one pooled set of buffers, B′'s dense
// storage included, and the steps share one solve and one multiplier
// slice, so the count is 192. Under the race detector sync.Pool drops
// a quarter of its puts, and a scenario whose two pools both dropped
// their last puts allocates 10 more, so the ceiling leaves room for
// every put to drop (193–196 measured). It was 241 with buffers per scenario and
// multipliers per step, 318 with a solve per step. One grid copy per
// step would add 120 (three allocations each).
func TestDCScenarioAllocs(t *testing.T) {
	g := cases.IEEE30()
	cfg := GenConfig{Steps: 40, Seed: 1, UseDC: true}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := GenerateScenarioContext(context.Background(), g, Scenario{3}, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 205 {
		t.Fatalf("one DC ieee30 scenario made %v allocations, ceiling 205", allocs)
	}
}
