package harness

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/client"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/router"
)

// The soak row's shape.
const (
	soakCase     = "ieee14"
	soakSteps    = 12
	soakBackends = 2 // primaries; the churn kills one
	soakTick     = time.Second
)

// soakEvent is one churn action and its outcome.
type soakEvent struct {
	AtMS   int64  `json:"at_ms"`
	Kind   string `json:"kind"` // reload | patch | kill | restart
	Detail string `json:"detail,omitempty"`
	Err    string `json:"error,omitempty"`
}

// stageRow is one hop's latency quantiles over the SLO window at a
// tick, read from the router's /v1/fleet stage histograms.
type stageRow struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// counts are the soak's tallies, per tick and over the run.
type counts struct {
	Detects           uint64  `json:"detects"`
	Errors            uint64  `json:"errors"`
	Shed              uint64  `json:"shed"`
	IngestFrames      uint64  `json:"ingest_frames"`
	OutageRequests    uint64  `json:"outage_requests"`
	CorrectIsolations uint64  `json:"correct_isolations"`
	NormalRequests    uint64  `json:"normal_requests"`
	FalseAlarms       uint64  `json:"false_alarms"`
	IsolationAccuracy float64 `json:"isolation_accuracy"`
	FalseAlarmRate    float64 `json:"false_alarm_rate"`
}

// add sums o's tallies into c and recomputes the rates.
func (c *counts) add(o counts) {
	c.Detects += o.Detects
	c.Errors += o.Errors
	c.Shed += o.Shed
	c.IngestFrames += o.IngestFrames
	c.OutageRequests += o.OutageRequests
	c.CorrectIsolations += o.CorrectIsolations
	c.NormalRequests += o.NormalRequests
	c.FalseAlarms += o.FalseAlarms
	c.IsolationAccuracy = ratio(c.CorrectIsolations, c.OutageRequests)
	c.FalseAlarmRate = ratio(c.FalseAlarms, c.NormalRequests)
}

// tickRow is one time-series sample of the soak: its tallies and the
// fleet's availability and per-stage latency.
type tickRow struct {
	AtMS int64 `json:"at_ms"`
	counts
	Availability float64             `json:"availability"`
	Stages       map[string]stageRow `json:"stages,omitempty"`
}

// soakReport is the SOAK_report.json document: the churn event log,
// the tick series, totals, the slowest retained traces, and one merged
// multi-hop trace.
type soakReport struct {
	Case          string      `json:"case"`
	Backends      int         `json:"backends"`
	TickMS        int64       `json:"tick_ms"`
	StartMS       int64       `json:"start_ms"`
	DurationMS    int64       `json:"duration_ms"`
	Events        []soakEvent `json:"events"`
	Series        []tickRow   `json:"series"`
	Totals        counts      `json:"totals"`
	SlowestTraces []api.Trace `json:"slowest_traces"`
	MultiHopTrace *api.Trace  `json:"multi_hop_trace,omitempty"`
}

// ticks is the series the traffic goroutines feed.
type ticks struct {
	mu    sync.Mutex
	start time.Time
	rows  []*tickRow
}

// add applies fn to the row of the tick now falls in.
func (t *ticks) add(now time.Time, fn func(*tickRow)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := int(now.Sub(t.start) / soakTick)
	for len(t.rows) <= i {
		t.rows = append(t.rows, &tickRow{AtMS: int64(len(t.rows)+1) * soakTick.Milliseconds()})
	}
	fn(t.rows[i])
}

// soakRow runs the soak for o.SoakDuration, writes its report to
// o.ReportPath (also when the gate then fails), and gates on it.
func soakRow(ctx context.Context, o Options) error {
	rep, err := soak(ctx, cmp.Or(o.SoakDuration, 6*time.Second))
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(cmp.Or(o.ReportPath, "SOAK_report.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	return checkSoak(rep)
}

// soak boots a traced two-primary fleet from one published artifact
// and drives it for d: two detect loops alternating outage and normal
// samples whose truth is known, a binary-frame streamer, and a
// /v1/fleet sampler per tick, all through the router. Mid-traffic it churns the fleet:
// a rolling reload by fingerprint, a patch broadcast, a kill, and a
// restart on the same address. Reload and patch resolve to the same
// weights (the patch trains under the base seed), so the local truth
// holds throughout.
func soak(ctx context.Context, d time.Duration) (*soakReport, error) {
	var f Fleet
	defer f.Close()
	opts := recipe(soakCase, soakSteps)
	sys, err := f.Publish(ctx, opts)
	if err != nil {
		return nil, err
	}
	fp := sys.Model().Fingerprint()
	patch, err := pmuoutage.TrainModelPatchContext(ctx, sys.Model(), pmuoutage.PatchSpec{Lines: sys.ValidLines()[:1], Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	patchPath := filepath.Join(f.dir, "soak-patch.bin")
	pf, err := os.Create(patchPath)
	if err != nil {
		return nil, err
	}
	if err := errors.Join(patch.Encode(pf), pf.Close()); err != nil {
		return nil, err
	}
	tr, err := newTruth(ctx, sys)
	if err != nil {
		return nil, err
	}
	normal, err := sys.SimulateOutageContext(ctx, nil, 2)
	if err != nil {
		return nil, err
	}

	primaries := make([]*Backend, soakBackends)
	urls := make([]string, soakBackends)
	for i := range primaries {
		if primaries[i], err = f.AddBackend(ctx, opts, fp); err != nil {
			return nil, err
		}
		urls[i] = primaries[i].URL
	}
	tracer := obs.NewTracer(obs.TracerConfig{Capacity: 512, SlowThreshold: 50 * time.Millisecond, SampleEvery: 1})
	if err := f.StartRouter(ctx, router.Config{Backends: urls, FleetWindow: 3 * soakTick, Tracer: tracer}); err != nil {
		return nil, err
	}

	start := time.Now()
	series := &ticks{start: start}
	rep := &soakReport{Case: soakCase, Backends: soakBackends, TickMS: soakTick.Milliseconds(), StartMS: start.UnixMilli()}
	tctx, tcancel := context.WithDeadline(ctx, start.Add(d))
	defer tcancel()
	var wg sync.WaitGroup
	// drive runs fn after every pause until the traffic phase ends.
	drive := func(pause time.Duration, fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sleepCtx(tctx, pause) {
				fn()
			}
		}()
	}
	for w := 0; w < 2; w++ {
		outage := false
		drive(5*time.Millisecond, func() {
			outage = !outage
			samples := normal
			if outage {
				samples = tr.samples
			}
			t0 := time.Now()
			reps, err := f.Cli.Detect(tctx, Shard, samples)
			if tctx.Err() != nil {
				return
			}
			var se *client.ServerError
			shed := errors.As(err, &se) && se.Status == http.StatusTooManyRequests
			correct, alarmed := tr.classify(reps)
			series.add(t0, func(row *tickRow) {
				row.Detects++
				switch {
				case shed:
					row.Shed++
				case err != nil:
					row.Errors++
				case outage:
					row.OutageRequests++
					if correct {
						row.CorrectIsolations++
					}
				default:
					row.NormalRequests++
					if alarmed {
						row.FalseAlarms++
					}
				}
			})
		})
	}
	seq := uint32(0)
	drive(10*time.Millisecond, func() {
		seq++
		t0 := time.Now()
		raw, err := postFrame(tctx, f.Cli, seq, tr.samples[0])
		if tctx.Err() != nil {
			return
		}
		series.add(t0, func(row *tickRow) {
			if err == nil && raw.Status == http.StatusOK {
				row.IngestFrames++
			} else {
				row.Errors++
			}
		})
	})
	drive(soakTick, func() {
		var fh api.FleetHealth
		if call(tctx, f.Cli, "/v1/fleet", nil, &fh) != nil {
			return
		}
		stages := map[string]stageRow{}
		for stage, h := range fh.Stages {
			stages[stage] = stageRow{Count: h.Count, P50MS: h.Quantile(0.50) * 1e3, P95MS: h.Quantile(0.95) * 1e3, P99MS: h.Quantile(0.99) * 1e3}
		}
		series.add(time.Now().Add(-soakTick/2), func(row *tickRow) { row.Availability, row.Stages = fh.Availability, stages })
	})

	// The churn schedule, as fractions of the traffic phase.
	note := func(kind, detail string, err error) {
		ev := soakEvent{AtMS: time.Since(start).Milliseconds(), Kind: kind, Detail: detail}
		if err != nil {
			ev.Err = err.Error()
		}
		rep.Events = append(rep.Events, ev)
	}
	at := func(frac float64) bool {
		return sleepCtx(tctx, time.Duration(frac*float64(d))-time.Since(start))
	}
	func() {
		// Rolling reload, one backend at a time through its own control
		// plane (the router's /v1/reload is a broadcast).
		if !at(0.25) {
			return
		}
		for i, b := range primaries {
			_, err := b.Cli.ReloadModel(tctx, Shard, fp)
			note("reload", fmt.Sprintf("backend %d by fingerprint", i), err)
		}
		if !at(0.45) {
			return
		}
		var fr api.FleetReload
		err := call(tctx, f.Cli, "/v1/reload", api.ReloadRequest{Shard: Shard, PatchPath: patchPath}, &fr)
		if err == nil && fr.Failed {
			err = errors.New("patch reload incomplete on some backend")
		}
		note("patch", filepath.Base(patchPath), err)
		// The router must fail in-flight requests over; the prober
		// readmits the backend once it is back on its address.
		if !at(0.6) {
			return
		}
		victim := primaries[0]
		note("kill", "backend 0 "+victim.URL, victim.Kill())
		if !at(0.8) {
			return
		}
		note("restart", "backend 0 "+victim.URL, victim.Restart(ctx))
	}()
	<-tctx.Done()
	wg.Wait()
	rep.DurationMS = time.Since(start).Milliseconds()

	for _, row := range series.rows {
		row.IsolationAccuracy = ratio(row.CorrectIsolations, row.OutageRequests)
		row.FalseAlarmRate = ratio(row.FalseAlarms, row.NormalRequests)
		rep.Series = append(rep.Series, *row)
		rep.Totals.add(row.counts)
	}
	rep.MultiHopTrace = findMultiHop(ctx, f.Cli, tracer.Traces())
	slow := tracer.Traces()
	slices.SortFunc(slow, func(a, b api.Trace) int { return cmp.Compare(b.DurationNS, a.DurationNS) })
	rep.SlowestTraces = slow[:min(5, len(slow))]
	return rep, nil
}

// ratio is n/d, or 0 for an empty denominator.
func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// findMultiHop hunts the router's newest retained traces for one whose
// merged view (GET /debug/traces?id=) spans the route, proxy, and
// backend http and detect stages.
func findMultiHop(ctx context.Context, cl *client.Client, traces []api.Trace) *api.Trace {
	for _, tr := range traces[:min(25, len(traces))] {
		var merged api.Trace
		if call(ctx, cl, "/debug/traces?id="+tr.TraceID, nil, &merged) != nil {
			continue
		}
		stages := map[string]bool{}
		for _, s := range merged.Spans {
			stages[s.Stage] = true
		}
		if stages["route"] && stages["proxy"] && stages["http"] && stages["detect"] {
			return &merged
		}
	}
	return nil
}

// checkSoak is the soak row's acceptance gate: churn must be invisible
// to callers, not just survivable.
func checkSoak(rep *soakReport) error {
	kinds := map[string]int{}
	for _, ev := range rep.Events {
		if ev.Err == "" {
			kinds[ev.Kind]++
		}
	}
	staged := 0
	for _, row := range rep.Series {
		if len(row.Stages) > 0 {
			staged++
		}
	}
	switch tot := rep.Totals; {
	case kinds["reload"] == 0:
		return errors.New("no successful reload event")
	case kinds["kill"] == 0:
		return errors.New("no backend kill event")
	case len(rep.Series) < 3:
		return fmt.Errorf("only %d time-series ticks", len(rep.Series))
	case staged == 0:
		return errors.New("no tick carries per-stage latency quantiles")
	case tot.OutageRequests == 0 || tot.NormalRequests == 0:
		return errors.New("labelled traffic missing an arm (outage or normal)")
	case tot.IsolationAccuracy < 0.9:
		return fmt.Errorf("isolation accuracy %.3f under churn, want >= 0.9", tot.IsolationAccuracy)
	case tot.Errors > 0:
		return fmt.Errorf("%d detect/ingest errors; a kill mid-traffic must not drop requests", tot.Errors)
	case tot.IngestFrames == 0:
		return errors.New("no binary ingest frames made it through")
	case rep.MultiHopTrace == nil:
		return errors.New("no retained multi-hop trace stitching route, proxy, and backend stages")
	}
	return nil
}
