// Package stream provides the online layer the paper's "timely outage
// detection" story needs: PMU samples arrive one at a time at the
// control center, the detector scores each, and a debouncer turns the
// per-sample decisions into confirmed events with a measured detection
// latency. Missing measurements are an expected part of the stream —
// samples carry availability masks end to end.
package stream

import (
	"errors"
	"fmt"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/grid"
)

// Event is a confirmed outage event emitted by the monitor.
type Event struct {
	// Seq is the stream sequence number of the sample that confirmed
	// the event.
	Seq int
	// FirstSeq is the sequence number of the first sample of the streak
	// that led to confirmation — Seq-FirstSeq+1 samples of latency.
	FirstSeq int
	// Lines is the identified outage set at confirmation time.
	Lines []grid.Line
	// Score is the deviation energy of the confirming sample.
	Score float64
}

// Latency returns the number of samples between onset of the detected
// streak and confirmation.
func (e Event) Latency() int { return e.Seq - e.FirstSeq + 1 }

// Config tunes the monitor.
type Config struct {
	// Confirm is the number of consecutive outage-positive samples
	// required before an event is emitted (default 3). PMU glitches are
	// one sample long; real outages persist.
	Confirm int
	// Cooldown is the number of samples after an event during which no
	// new event is emitted (default 10), so one outage is not reported
	// once per sample forever.
	Cooldown int
}

func (c Config) withDefaults() Config {
	if c.Confirm <= 0 {
		c.Confirm = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10
	}
	return c
}

// Monitor consumes a PMU sample stream and emits debounced outage
// events. It is not safe for concurrent use; feed it from one goroutine
// (the serving tier's shards serialise Ingest under a mutex).
type Monitor struct {
	det *detect.Detector
	cfg Config

	seq       int
	streak    int
	streakSeq int
	cooldown  int
}

// NewMonitor wraps a trained detector.
func NewMonitor(det *detect.Detector, cfg Config) (*Monitor, error) {
	if det == nil {
		return nil, errors.New("stream: nil detector")
	}
	return &Monitor{det: det, cfg: cfg.withDefaults()}, nil
}

// Ingest scores one sample. It returns a non-nil Event exactly when the
// sample confirms a new outage event.
func (m *Monitor) Ingest(s dataset.Sample) (*Event, error) {
	m.seq++
	r, err := m.det.Detect(s)
	if err != nil {
		return nil, fmt.Errorf("stream: sample %d: %w", m.seq, err)
	}
	if m.cooldown > 0 {
		m.cooldown--
	}
	if !r.Outage {
		m.streak = 0
		return nil, nil
	}
	if m.streak == 0 {
		m.streakSeq = m.seq
	}
	m.streak++
	if m.streak >= m.cfg.Confirm && m.cooldown == 0 {
		m.cooldown = m.cfg.Cooldown
		m.streak = 0
		ev := &Event{
			Seq:      m.seq,
			FirstSeq: m.streakSeq,
			Lines:    append([]grid.Line(nil), r.Lines...),
			Score:    r.DeviationEnergy,
		}
		return ev, nil
	}
	return nil, nil
}

// Seq returns the number of samples ingested so far.
func (m *Monitor) Seq() int { return m.seq }

// Reset clears streak and cooldown state (e.g. after operator action).
func (m *Monitor) Reset() {
	m.streak = 0
	m.cooldown = 0
}
