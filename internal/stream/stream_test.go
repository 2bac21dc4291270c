package stream

import (
	"context"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/pmunet"
)

func buildMonitor(t *testing.T, cfg Config) (*Monitor, *dataset.Data) {
	t.Helper()
	g := cases.IEEE14()
	train, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 20, Seed: 11, UseDC: true})
	if err != nil {
		t.Fatal(err)
	}
	nw, _ := pmunet.Build(g, 3)
	det, err := detect.TrainContext(context.Background(), train, nw, detect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	test, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 12, Seed: 500, UseDC: true})
	if err != nil {
		t.Fatal(err)
	}
	return m, test
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(nil, Config{}); err == nil {
		t.Fatal("expected error for nil detector")
	}
}

func TestQuietOnNormalStream(t *testing.T) {
	m, test := buildMonitor(t, Config{Confirm: 2})
	for _, s := range test.Normal.Samples {
		ev, err := m.Ingest(s)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			t.Fatalf("event on normal stream at seq %d", ev.Seq)
		}
	}
	if m.Seq() != test.Normal.T() {
		t.Fatalf("Seq = %d, want %d", m.Seq(), test.Normal.T())
	}
}

func TestEventAfterConfirmSamples(t *testing.T) {
	m, test := buildMonitor(t, Config{Confirm: 3, Cooldown: 5})
	e := test.ValidLines[0]
	// Normal lead-in, then the outage persists.
	var events []Event
	feed := append([]dataset.Sample{}, test.Normal.Samples[:4]...)
	feed = append(feed, test.OutageSet(e).Samples...)
	onset := 4
	for _, s := range feed {
		ev, err := m.Ingest(s)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			events = append(events, *ev)
		}
	}
	if len(events) == 0 {
		t.Fatal("no event for persistent outage")
	}
	first := events[0]
	if first.FirstSeq != onset+1 {
		t.Errorf("FirstSeq = %d, want %d", first.FirstSeq, onset+1)
	}
	if first.Latency() != 3 {
		t.Errorf("Latency = %d, want 3 (Confirm)", first.Latency())
	}
	found := false
	for _, l := range first.Lines {
		if l == e {
			found = true
		}
	}
	if !found {
		t.Errorf("event lines %v missing true line %d", first.Lines, e)
	}
	// Cooldown must prevent an event per sample.
	if len(events) > 2 {
		t.Errorf("cooldown failed: %d events from one outage", len(events))
	}
}

func TestGlitchDoesNotTrigger(t *testing.T) {
	m, test := buildMonitor(t, Config{Confirm: 3})
	e := test.ValidLines[0]
	// A single outage-looking sample sandwiched in normal data: no event.
	feed := []dataset.Sample{
		test.Normal.Samples[0],
		test.OutageSet(e).Samples[0],
		test.Normal.Samples[1],
		test.Normal.Samples[2],
		test.OutageSet(e).Samples[1],
		test.Normal.Samples[3],
	}
	for i, s := range feed {
		ev, err := m.Ingest(s)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			t.Fatalf("glitch at %d produced an event", i)
		}
	}
	if m.streak != 0 {
		t.Fatalf("streak = %d after normal tail", m.streak)
	}
}

func TestReset(t *testing.T) {
	m, test := buildMonitor(t, Config{Confirm: 5})
	e := test.ValidLines[0]
	for _, s := range test.OutageSet(e).Samples[:3] {
		if _, err := m.Ingest(s); err != nil {
			t.Fatal(err)
		}
	}
	if m.streak != 3 {
		t.Fatalf("streak = %d, want 3", m.streak)
	}
	m.Reset()
	if m.streak != 0 {
		t.Fatal("Reset did not clear streak")
	}
}

func TestIngestErrorPropagates(t *testing.T) {
	m, _ := buildMonitor(t, Config{})
	if _, err := m.Ingest(dataset.Sample{Vm: []float64{1}, Va: []float64{0}}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}
