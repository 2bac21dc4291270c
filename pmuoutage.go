// Package pmuoutage is a robust power-line outage detector for PMU
// (phasor measurement unit) data streams, reproducing Cordova-Garcia &
// Wang, "Robust Power Line Outage Detection with Unreliable Phasor
// Measurements" (ICDE 2017).
//
// The library detects and localises transmission-line outages from bus
// voltage phasors even when arbitrary subsets of the measurements are
// missing — PMU dropouts, PDC failures, or data lost at the outage
// location itself. It learns per-node subspace signatures from
// historical (or simulated) data rather than per-scenario classifiers,
// which is what makes it robust to missing entries.
//
// A complete round trip:
//
//	sys, err := pmuoutage.NewSystem(pmuoutage.Options{Case: "ieee14"})
//	if err != nil { ... }
//	samples, err := sys.SimulateOutage([]int{4}, 3) // 3 samples of line-4 outage
//	report, err := sys.Detect(samples[0])
//	// report.Outage == true, report.Lines == [{buses of line 4}]
//
// Everything is deterministic in Options.Seed. The heavy machinery —
// Newton–Raphson AC power flow, SVD subspace learning, detection-group
// formation — lives in internal packages; this package is the stable
// surface.
//
// # Conventions
//
// Context first: every operation that does non-trivial work has a
// Context variant — NewSystemContext, DetectContext, DetectBatchContext,
// SimulateOutageContext, EvaluateContext — which honours cancellation
// and deadlines and bounds its parallelism by Options.Workers. The
// short names are thin wrappers over context.Background, kept for
// callers that do not need cancellation; new API is added in the
// Context form first.
//
// Typed errors: every failure the facade itself produces wraps one of
// the exported sentinels ErrUnknownCase, ErrBadSample, ErrBadLine, or
// ErrBadScores, so callers test with errors.Is rather than matching
// strings. Sample
// validation runs through one shared path, so Detect, DetectBatch, and
// Monitor.Ingest report byte-identical errors for the same defect.
//
// Serving: internal/service and cmd/outaged expose this same API as a
// sharded JSON-over-HTTP detection service — one trained System per
// shard, request coalescing, deadlines, and load-shedding on top of the
// methods below, with the sentinels mapped to HTTP status codes.
package pmuoutage

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/metrics"
	"pmuoutage/internal/par"
	"pmuoutage/internal/pmunet"
	"pmuoutage/internal/stream"
)

// Options configures NewSystem and TrainModel. Options are embedded in
// serialized Model artifacts (so a decoded model simulates and
// evaluates exactly as the original), hence the codec tags.
type Options struct {
	// Case names a built-in test system: "ieee14", "ieee30", "ieee57"
	// or "ieee118" (default "ieee14"). See Cases.
	Case string `json:"case"`
	// Clusters is the number of PDC clusters the PMU network is grouped
	// into; 0 derives max(3, buses/10).
	Clusters int `json:"clusters"`
	// TrainSteps is the length of the simulated training window per
	// scenario (default 40).
	TrainSteps int `json:"train_steps"`
	// Seed makes data generation and training deterministic (default 1).
	Seed int64 `json:"seed"`
	// UseDC switches the power-flow substrate to the fast linear DC
	// approximation. The default is the full Newton–Raphson AC solver.
	UseDC bool `json:"use_dc"`
	// Detector overrides the detector configuration (advanced use).
	Detector detect.Config `json:"detector"`
	// Workers bounds the worker pool used by data generation, training,
	// DetectBatch, and Evaluate (0 = GOMAXPROCS). Results are identical
	// for every worker count: the pipeline derives independent seeds per
	// scenario and assigns results by index.
	Workers int `json:"workers"`
}

func (o Options) withDefaults() Options {
	if o.Case == "" {
		o.Case = "ieee14"
	}
	if o.TrainSteps <= 0 {
		o.TrainSteps = 40
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Cases lists the built-in test system names.
func Cases() []string { return cases.Names() }

// Sample is one time instant of PMU data for all buses: per-unit voltage
// magnitudes, angles in radians, and the indices of buses whose
// measurements are missing.
type Sample struct {
	Vm      []float64 `json:"vm"` //gridlint:unit pu
	Va      []float64 `json:"va"` //gridlint:unit rad
	Missing []int     `json:"missing,omitempty"`
}

// Line describes one power line by its internal index and its endpoint
// bus numbers (1-based, as in the IEEE case data).
type Line struct {
	Index   int `json:"index"`
	FromBus int `json:"from_bus"`
	ToBus   int `json:"to_bus"`
}

// Report is the outcome of one detection.
type Report struct {
	// Outage reports whether the sample contains at least one line outage.
	Outage bool `json:"outage"`
	// Lines is the identified outage set F̂.
	Lines []Line `json:"lines,omitempty"`
	// NodeScores are the scaled subspace proximities per bus (lower =
	// closer to that bus's outage signatures). A bus with no outage
	// signature scores +Inf, which Scores keeps representable in JSON.
	NodeScores Scores `json:"node_scores,omitempty"`
	// DeviationEnergy is the anomaly energy behind the outage decision.
	DeviationEnergy float64 `json:"deviation_energy"`
}

// System is a trained outage-detection system bound to one grid. It is
// a serving view over an immutable Model: training happens once (in
// NewSystem or TrainModel) and any number of Systems can serve the
// resulting artifact via NewSystemFromModel.
type System struct {
	opts  Options
	g     *grid.Grid
	nw    *pmunet.Network
	det   *detect.Detector
	model *Model
}

// NewSystem builds the grid, simulates training data (normal operation
// plus every valid single-line outage), and trains the detector. It is
// NewSystemContext with a background context.
func NewSystem(opts Options) (*System, error) {
	return NewSystemContext(context.Background(), opts)
}

// NewSystemContext is NewSystem with cancellation: the simulation and
// training pipeline checks ctx between scenarios and returns its error
// early when cancelled. Parallelism is bounded by Options.Workers.
// An Options.Case naming no built-in system fails with ErrUnknownCase.
// It is TrainModelContext followed by NewSystemFromModel; callers that
// want to persist or share the trained state call those directly.
func NewSystemContext(ctx context.Context, opts Options) (*System, error) {
	m, err := TrainModelContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	return NewSystemFromModel(m)
}

// Model returns the immutable trained artifact this system serves.
func (s *System) Model() *Model { return s.model }

// Buses returns the number of buses in the system.
func (s *System) Buses() int { return s.g.N() }

// Lines returns every line of the system with its endpoints.
func (s *System) Lines() []Line {
	out := make([]Line, s.g.E())
	for e := range out {
		out[e] = s.lineAt(grid.Line(e))
	}
	return out
}

// lineAt converts an internal line handle to the public endpoint view.
func (s *System) lineAt(e grid.Line) Line {
	a, b := s.g.Endpoints(e)
	return Line{Index: int(e), FromBus: s.g.Buses[a].ID, ToBus: s.g.Buses[b].ID}
}

// ValidLines returns the indices of lines whose outage is detectable
// (removal neither islands the grid nor diverges the power flow).
func (s *System) ValidLines() []int {
	var out []int
	for _, e := range s.det.ValidLines() {
		out = append(out, int(e))
	}
	return out
}

// Clusters returns the PDC cluster partition as bus-index groups.
func (s *System) Clusters() [][]int {
	out := make([][]int, len(s.nw.Clusters))
	for i, c := range s.nw.Clusters {
		out[i] = append([]int(nil), c...)
	}
	return out
}

// datasetSample validates a facade Sample against the grid and converts
// it to the internal representation. It is the one shared validation
// path under Detect, DetectBatch, and Monitor.Ingest, so every entry
// point reports identical ErrBadSample errors for the same defect.
func (s *System) datasetSample(sample Sample) (dataset.Sample, error) {
	n := s.g.N()
	if len(sample.Vm) != n || len(sample.Va) != n {
		return dataset.Sample{}, fmt.Errorf("%w: sample has %d/%d values, grid has %d buses",
			ErrBadSample, len(sample.Vm), len(sample.Va), n)
	}
	ds := dataset.Sample{Vm: sample.Vm, Va: sample.Va}
	if len(sample.Missing) > 0 {
		m := pmunet.NoneMissing(n)
		for _, i := range sample.Missing {
			if i < 0 || i >= n {
				return dataset.Sample{}, fmt.Errorf("%w: missing index %d out of range %d", ErrBadSample, i, n)
			}
			m[i] = true
		}
		ds.Mask = m
	}
	return ds, nil
}

// Scores is a per-bus score vector. Scores can legitimately be
// non-finite (+Inf marks a bus with no outage signatures), which plain
// JSON numbers cannot carry, so Scores marshals non-finite entries as
// the strings "+Inf", "-Inf", and "NaN" and reads them back losslessly.
type Scores []float64

// MarshalJSON implements json.Marshaler. It appends each score in
// place: a finite one as encoding/json writes a float64, a non-finite
// one as its string.
func (s Scores) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 2+24*len(s))
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		switch {
		case math.IsInf(v, 1):
			b = append(b, `"+Inf"`...)
		case math.IsInf(v, -1):
			b = append(b, `"-Inf"`...)
		case math.IsNaN(v):
			b = append(b, `"NaN"`...)
		default:
			b = appendJSONFloat(b, v)
		}
	}
	return append(b, ']'), nil
}

// appendJSONFloat appends the finite v as encoding/json encodes a
// float64: the shortest decimal that reads back as v, in 'f' format,
// or in 'e' format when |v| < 1e-6 or |v| >= 1e21, with a one-digit
// negative exponent written without its leading zero (e-7, not e-07).
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if a := math.Abs(v); a > 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Scores) UnmarshalJSON(b []byte) error {
	var vals []any
	if err := json.Unmarshal(b, &vals); err != nil {
		return err
	}
	out := make(Scores, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			out[i] = x
		case string:
			switch x {
			case "+Inf":
				out[i] = math.Inf(1)
			case "-Inf":
				out[i] = math.Inf(-1)
			case "NaN":
				out[i] = math.NaN()
			default:
				return fmt.Errorf("%w: score %d: unknown value %q", ErrBadScores, i, x)
			}
		default:
			return fmt.Errorf("%w: score %d: neither number nor string", ErrBadScores, i)
		}
	}
	*s = out
	return nil
}

// report converts an internal detection result to the public view.
func (s *System) report(r *detect.Result) *Report {
	rep := &Report{
		Outage:          r.Outage,
		NodeScores:      Scores(r.NodeScores),
		DeviationEnergy: r.DeviationEnergy,
	}
	for _, e := range r.Lines {
		rep.Lines = append(rep.Lines, s.lineAt(e))
	}
	return rep
}

// Detect classifies one sample, which may have missing measurements. It
// is DetectContext with a background context.
func (s *System) Detect(sample Sample) (*Report, error) {
	return s.DetectContext(context.Background(), sample)
}

// DetectContext is Detect with cancellation. Classifying one sample is
// short and runs to completion once started; the context is checked on
// entry, which is what lets batch layers abort cheaply between samples.
// Malformed samples, including those whose deviation energy is not
// finite, fail with an error wrapping ErrBadSample.
func (s *System) DetectContext(ctx context.Context, sample Sample) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ds, err := s.datasetSample(sample)
	if err != nil {
		return nil, err
	}
	r, err := s.det.Detect(ds)
	if err != nil {
		return nil, detectErr(err)
	}
	return s.report(r), nil
}

// detectErr maps a detector refusal onto the facade sentinels: a sample
// whose deviation energy is not finite (a NaN or infinite phasor, or one
// large enough to overflow the energy, at a bus not marked missing) is
// a bad sample, reported with the same error by every entry point.
func detectErr(err error) error {
	if errors.Is(err, detect.ErrNonFinite) {
		return fmt.Errorf("%w: %v", ErrBadSample, detect.ErrNonFinite)
	}
	return err
}

// DetectBatch classifies many samples on up to Options.Workers
// goroutines, the caller's first (internal/par: the others join only a
// call that outlasts its spawn delay, so a short batch runs on the
// caller alone), and returns one report per sample, in input order.
// The trained detector is read-only during detection, so the batch
// result is identical to calling Detect in a loop.
func (s *System) DetectBatch(samples []Sample) ([]*Report, error) {
	return s.DetectBatchContext(context.Background(), samples)
}

// DetectBatchContext is DetectBatch with cancellation: a cancelled
// context stops the claiming of the remaining samples and returns the
// context error.
func (s *System) DetectBatchContext(ctx context.Context, samples []Sample) ([]*Report, error) {
	return par.Map(ctx, s.opts.Workers, len(samples), func(ctx context.Context, i int) (*Report, error) {
		return s.DetectContext(ctx, samples[i])
	})
}

// SimulateOutage generates n fresh test samples with the given lines out
// of service, using an independent random seed stream from training.
// Pass no lines for normal-operation samples. It is
// SimulateOutageContext with a background context.
func (s *System) SimulateOutage(lineIdx []int, n int) ([]Sample, error) {
	return s.SimulateOutageContext(context.Background(), lineIdx, n)
}

// SimulateOutageContext is SimulateOutage with cancellation: the
// per-step power-flow loop stops at the first context error. Line
// indices outside the grid fail with an error wrapping ErrBadLine.
func (s *System) SimulateOutageContext(ctx context.Context, lineIdx []int, n int) ([]Sample, error) {
	if n <= 0 {
		n = 1
	}
	var sc dataset.Scenario
	for _, e := range lineIdx {
		if e < 0 || e >= s.g.E() {
			return nil, fmt.Errorf("%w: line %d out of range %d", ErrBadLine, e, s.g.E())
		}
		sc = append(sc, grid.Line(e))
	}
	set, err := dataset.GenerateScenarioContext(ctx, s.g, sc, dataset.GenConfig{
		Steps: n, Seed: s.opts.Seed + 99991, UseDC: s.opts.UseDC,
	})
	if err != nil {
		return nil, err
	}
	out := make([]Sample, set.T())
	for i, smp := range set.Samples {
		out[i] = Sample{Vm: smp.Vm, Va: smp.Va}
	}
	return out, nil
}

// Evaluate scores the detector on fresh samples of every valid
// single-line outage and returns the mean identification accuracy and
// false-alarm rate (Eq. 12 of the paper). perCase controls how many
// samples are drawn per outage case. It is EvaluateContext with a
// background context.
func (s *System) Evaluate(perCase int) (ia, fa float64, err error) {
	return s.EvaluateContext(context.Background(), perCase)
}

// EvaluateContext is Evaluate with cancellation. The outage cases fan
// out on up to Options.Workers goroutines: each case simulates and scores its
// samples independently (its seed stream derives from the scenario, not
// from shared state) and the per-case accumulators merge in line order,
// so the result is identical for every worker count.
func (s *System) EvaluateContext(ctx context.Context, perCase int) (ia, fa float64, err error) {
	if perCase <= 0 {
		perCase = 5
	}
	lines := s.det.ValidLines()
	accs, err := par.Map(ctx, s.opts.Workers, len(lines), func(ctx context.Context, i int) (metrics.Accumulator, error) {
		e := lines[i]
		var acc metrics.Accumulator
		samples, err := s.SimulateOutageContext(ctx, []int{int(e)}, perCase)
		if err != nil {
			return acc, err
		}
		for _, smp := range samples {
			r, err := s.DetectContext(ctx, smp)
			if err != nil {
				return acc, err
			}
			var got []grid.Line
			for _, l := range r.Lines {
				got = append(got, grid.Line(l.Index))
			}
			acc.Add([]grid.Line{e}, got)
		}
		return acc, nil
	})
	if err != nil {
		return 0, 0, err
	}
	var total metrics.Accumulator
	for _, acc := range accs { // fixed line order: deterministic float sums
		total.Merge(acc)
	}
	return total.IA(), total.FA(), nil
}

// DrawMissing samples a missing-data pattern from the PMU-network
// reliability model of the paper (Eqs. 13–15): given a target
// system-wide reliability level r in (0, 1], every PMU (and its link to
// the PDC) fails independently with probability 1 − r^(1/L). It returns
// the missing bus indices; draws are deterministic in seed.
func (s *System) DrawMissing(systemReliability float64, seed int64) ([]int, error) {
	rel, err := pmunet.FromSystemReliability(systemReliability, s.g.N())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	mask := s.nw.SampleMask(rel, rng)
	var out []int
	for i, missing := range mask {
		if missing {
			out = append(out, i)
		}
	}
	return out, nil
}

// WithMissing returns a copy of the sample with the given bus indices
// marked missing — convenient for building unreliable-data scenarios.
// Indices already marked missing are preserved, first-appearance order
// is kept, and duplicates collapse to a single entry.
func (smp Sample) WithMissing(buses ...int) Sample {
	out := Sample{Vm: smp.Vm, Va: smp.Va}
	seen := make(map[int]bool, len(smp.Missing)+len(buses))
	for _, set := range [][]int{smp.Missing, buses} {
		for _, b := range set {
			if !seen[b] {
				seen[b] = true
				out.Missing = append(out.Missing, b)
			}
		}
	}
	return out
}

// Monitor wraps the online detection layer: feed samples as they arrive
// and receive debounced, confirmed outage events. Create one with
// System.NewMonitor. A Monitor is not safe for concurrent use; callers
// that share one across goroutines must serialise Ingest (the service
// layer does this per shard).
type Monitor struct {
	sys *System
	mon *stream.Monitor
}

// Event is a confirmed outage event from a Monitor.
type Event struct {
	// Seq is the 1-based index of the confirming sample.
	Seq int `json:"seq"`
	// Latency is the number of samples from onset to confirmation.
	Latency int `json:"latency"`
	// Lines is the identified outage set at confirmation time.
	Lines []Line `json:"lines,omitempty"`
}

// NewMonitor creates an online monitor over the trained detector.
// confirm is the number of consecutive positive samples needed before an
// event fires (default 3); cooldown suppresses duplicate events after a
// confirmation (default 10 samples).
func (s *System) NewMonitor(confirm, cooldown int) (*Monitor, error) {
	m, err := stream.NewMonitor(s.det, stream.Config{Confirm: confirm, Cooldown: cooldown})
	if err != nil {
		return nil, err
	}
	return &Monitor{sys: s, mon: m}, nil
}

// Ingest scores one sample; it returns a non-nil Event exactly when the
// sample confirms a new outage. Malformed samples fail with the same
// ErrBadSample errors Detect reports.
func (m *Monitor) Ingest(sample Sample) (*Event, error) {
	ds, err := m.sys.datasetSample(sample)
	if err != nil {
		return nil, err
	}
	ev, err := m.mon.Ingest(ds)
	if err != nil {
		return nil, detectErr(err)
	}
	if ev == nil {
		return nil, nil
	}
	out := &Event{Seq: ev.Seq, Latency: ev.Latency()}
	for _, e := range ev.Lines {
		out.Lines = append(out.Lines, m.sys.lineAt(e))
	}
	return out, nil
}

// Seq returns the number of samples ingested so far.
func (m *Monitor) Seq() int { return m.mon.Seq() }

// Reset clears the monitor's streak and cooldown state.
func (m *Monitor) Reset() { m.mon.Reset() }
