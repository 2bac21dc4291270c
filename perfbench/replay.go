package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"pmuoutage"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/metrics"
)

const (
	replayCase = "ieee118"
	// replayPerLine is how many outage samples of each valid line the
	// labelled set holds. With one, the quality figures spread by up to 9%
	// across seeds (one over a 158-sample hit rate); four halves that.
	replayPerLine = 4
	// replayNormalFlagBound is the realism guard: the share of normal
	// samples the detector may flag as outages. At reliability 0.9 about
	// 5% of ieee118 normal samples are flagged.
	replayNormalFlagBound = 0.15
	// replayBatchOutages is how many outage samples, and as many normal
	// ones, each DetectBatchContext call scores. A call then takes about
	// 7 ms, so a run makes thousands of calls and their median passes over
	// the bursts in which other tenants of a shared host take the cores.
	// Longer calls take their share of every burst. On a 2-vCPU VM the
	// median's spread across seeds (interquartile range over the median)
	// grew with the batch: about 0.06 at 8 samples, 0.17 at 64 (the
	// service's default MaxBatch) in alternating runs, and 0.16 to 0.27
	// when each call scored the whole set.
	replayBatchOutages = 4
)

// system is a trained system with its setup timings.
type system struct {
	model   *pmuoutage.Model
	sys     *pmuoutage.System
	trainS  float64
	bootMS  float64
	caseKey string
}

// trainSystem trains the workload's model and boots a System from it.
func trainSystem(ctx context.Context, caseName string) (*system, error) {
	t0 := time.Now()
	m, err := pmuoutage.TrainModelContext(ctx, options(caseName))
	if err != nil {
		return nil, fmt.Errorf("training %s: %w", caseName, err)
	}
	t1 := time.Now()
	sys, err := pmuoutage.NewSystemFromModel(m)
	if err != nil {
		return nil, fmt.Errorf("booting %s: %w", caseName, err)
	}
	return &system{model: m, sys: sys, trainS: t1.Sub(t0).Seconds(), bootMS: time.Since(t1).Seconds() * 1e3, caseKey: caseName}, nil
}

// truth converts a label to the line set Eq. 12 scores against.
func truth(line int) []grid.Line {
	if line < 0 {
		return nil
	}
	return []grid.Line{grid.Line(line)}
}

func detected(r *pmuoutage.Report) []grid.Line {
	var out []grid.Line
	for _, l := range r.Lines {
		out = append(out, grid.Line(l.Index))
	}
	return out
}

// sampleQuality scores single-sample reports against their labels.
type sampleQuality struct {
	eq12          metrics.Accumulator // IA and FA (Eq. 12) over every sample
	outages, hits int                 // outage samples, and those whose report names the outaged line
}

func (q *sampleQuality) add(l labelled, r *pmuoutage.Report) {
	q.eq12.Add(truth(l.Line), detected(r))
	if l.normal() {
		return
	}
	q.outages++
	for _, d := range r.Lines {
		if d.Index == l.Line {
			q.hits++
			break
		}
	}
}

// delay is the expected number of samples from an outage's onset to the
// first report naming the outaged line when every sample is scored on
// its own: one over the share of outage samples whose report names it.
func (q *sampleQuality) delay() float64 { return float64(q.outages) / float64(q.hits) }

// record sets the gated quality metrics: IA, 1 - FA and the delay.
func (q *sampleQuality) record(o *outcome) {
	if q.hits == 0 {
		o.problem("no outage sample was identified: %d outage samples", q.outages)
		return
	}
	o.e2e["accuracy"] = q.eq12.IA()
	o.e2e["alarm_precision"] = 1 - q.eq12.FA()
	o.e2e["delay_samples"] = q.delay()
}

// replayPass is the result of one timed closed loop over the set.
type replayPass struct {
	samples int
	busy    time.Duration // wall time inside DetectBatchContext
	cpu     time.Duration // process CPU time inside DetectBatchContext
	lat     timings
}

func (p replayPass) sps() float64 { return float64(p.samples) / p.busy.Seconds() }

// perCPUSecond is the number of samples scored per second of process CPU
// time.
func (p replayPass) perCPUSecond() float64 { return float64(p.samples) / p.cpu.Seconds() }

func runReplay(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	setupS, s, err := timeSetups(cfg, 3, func() (*system, error) { return trainSystem(ctx, replayCase) }, func(*system) {})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS
	o.layers["pmuoutage.train_s"], o.layers["pmuoutage.boot_ms"] = s.trainS, s.bootMS

	set, err := replaySet(ctx, s.sys, cfg.seed, replayPerLine)
	if err != nil {
		return nil, err
	}
	// Reference answers from single-sample Detect calls, plus Eq. 12
	// accuracy and the realism guard over the same reports.
	want := make([][]byte, len(set))
	var q sampleQuality
	normals, flagged := 0, 0
	for i, l := range set {
		r, err := s.sys.DetectContext(ctx, l.Sample)
		if err != nil {
			return nil, fmt.Errorf("reference detect %d: %w", i, err)
		}
		if want[i], err = json.Marshal(r); err != nil {
			return nil, err
		}
		q.add(l, r)
		if l.normal() {
			normals++
			if r.Outage {
				flagged++
			}
		}
	}
	share := float64(flagged) / float64(normals)
	if share > replayNormalFlagBound {
		o.problem("realism guard: %d/%d normal samples flagged (%.3f > %.2f)", flagged, normals, share, replayNormalFlagBound)
	}
	batches := replayBatches(set, replayBatchOutages)
	var ids requestIDs
	cfg.say("replay-118: %d samples (%d normal, %d flagged) in %d batches of %d outage + %d normal, Workers=2",
		len(set), normals, flagged, len(batches), replayBatchOutages, replayBatchOutages)

	// Calls cycle through the batches in order. Every batch holds the same
	// number of outage samples, so a call's latency does not depend on
	// where the seed's shuffle placed them.
	pass := func(d time.Duration, spans *spanLog) replayPass {
		var p replayPass
		deadline := time.Now().Add(d)
		for c := 0; time.Now().Before(deadline) && ctx.Err() == nil; c++ {
			b := batches[c%len(batches)]
			batch := make([]pmuoutage.Sample, len(b))
			for j, k := range b {
				batch[j] = set[k].Sample
			}
			t0, c0 := time.Now(), cpuTime()
			reps, err := s.sys.DetectBatchContext(ctx, batch)
			t1, c1 := time.Now(), cpuTime()
			if spans != nil {
				spans.record(ids.next(), layerPar, "DetectBatchContext", t0, t1)
			}
			d := t1.Sub(t0)
			o.attempted++
			if err != nil {
				o.failed++
				o.problem("DetectBatchContext: %v", err)
				continue
			}
			p.busy += d
			p.cpu += c1 - c0
			p.lat.add(d)
			p.samples += len(batch)
			for j, r := range reps {
				if got, err := json.Marshal(r); err != nil || string(got) != string(want[b[j]]) {
					o.failed++
					o.problem("call %d sample %d: batch report differs from single-sample Detect", c, b[j])
					break
				}
			}
		}
		return p
	}

	if !cfg.trace {
		rss := startRSS()
		p := pass(cfg.duration(1), nil)
		o.e2e["rss_peak_mb"] = rss.end()
		lat := p.lat.summary()
		o.e2e["throughput_per_cpu_s"], o.e2e["p50_ms"] = p.perCPUSecond(), lat.P50
		q.record(o)
		cfg.say("  replay_sps          %.2f samples/s", p.sps())
		cfg.say("  ia                  %.6f", q.eq12.IA())
		cfg.say("  fa                  %.6f", q.eq12.FA())
		cfg.say("  delay_samples       %.6f (%d of %d outage samples name the line)", q.delay(), q.hits, q.outages)
		cfg.say("  samples per CPU-s   %.2f /s", p.perCPUSecond())
		cfg.say("  batch latency       %s", lat)
		return o, nil
	}

	// Traced: an untraced and a traced pass, then every layer measured
	// from outside on this grid.
	plain := pass(cfg.duration(0.5), nil)
	traced := pass(cfg.duration(0.5), newSpanLog())
	o.layers["trace.overhead"] = plain.sps() / traced.sps()
	cfg.say("  trace overhead      %.4f (untraced %.2f sps, traced %.2f sps)", o.layers["trace.overhead"], plain.sps(), traced.sps())
	if err := probeLayers(ctx, s, set, o); err != nil {
		return nil, err
	}
	if err := probeStack(ctx, cfg, s, o); err != nil {
		return nil, err
	}
	return o, nil
}
