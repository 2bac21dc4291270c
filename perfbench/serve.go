package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/client"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/metrics"
	"pmuoutage/internal/obs"
)

const (
	serveCase = "ieee30"
	// serveBackends is the number of backends behind the router.
	serveBackends = 2
	// serveOutageShare is the share of requests carrying an outage sample.
	serveOutageShare = 0.05
	// serveLimitMS is the latency limit a ladder rate's p99 must meet.
	serveLimitMS = 10.0
	// serveRefRate is the ladder rate the end-to-end metrics are taken
	// at. At 500/s the generators' two connections are about 10% busy, so
	// a brief slowdown of the machine does not build a queue that the
	// median would then carry.
	serveRefRate = 500
	// serveNormalFlagBound is the realism guard: the share of normal
	// requests the detector may flag. ieee30 flags none today.
	serveNormalFlagBound = 0.05
	// serveGenLagLimitMS fails the run when the generator, idle and
	// waiting for a send time, woke this late at the median: the
	// generator itself could not keep the schedule. The runtime's timers
	// wake on a millisecond grid here, so up to 1 ms is normal, and CPU
	// stolen by other tenants pushes the p90 to a few ms.
	serveGenLagLimitMS = 5.0
	// serveReloadEvery is the cadence of identity-patch broadcasts.
	serveReloadEvery = 250 * time.Millisecond
	// serveProbeRequests is how many of the traffic's first requests the
	// traced run's layer probes replay.
	serveProbeRequests = 2000
	// generators is the number of load-generator goroutines (and client
	// connections).
	generators = 2
)

// rung is one open-loop rate of the ladder.
type rung struct {
	rate int // requests per second
	d    time.Duration
}

// serveRates is the fixed rate ladder, each rate with the share of the
// run's seconds spent at it.
var serveRates = []struct {
	rate int
	frac float64
}{{250, 0.1}, {serveRefRate, 0.4}, {1000, 0.1}, {2000, 0.1}, {3000, 0.1}, {4000, 0.1}}

// serveLadder is the ladder scaled to d seconds of run time.
func serveLadder(cfg config, scale float64) []rung {
	out := make([]rung, len(serveRates))
	for i, r := range serveRates {
		out[i] = rung{rate: r.rate, d: cfg.duration(r.frac * scale)}
	}
	return out
}

// writePatch trains an identity patch (the model's own seed reproduces
// its signatures) for the first valid line and writes it where the
// backends can load it.
func (e *env) writePatch(ctx context.Context, dir string) error {
	p, err := pmuoutage.TrainModelPatchContext(ctx, e.s.model, pmuoutage.PatchSpec{
		Lines: []int{e.s.sys.ValidLines()[0]},
		Seed:  e.s.model.Options().Seed,
	})
	if err != nil {
		return fmt.Errorf("training identity patch: %w", err)
	}
	path, err := filepath.Abs(filepath.Join(dir, "identity.patch"))
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Encode(f); err != nil {
		_ = f.Close()
		return err
	}
	e.patch = path
	return f.Close()
}

// served is one request's record.
type served struct {
	pool    int
	due     time.Time
	start   time.Time
	end     time.Time
	idle    bool // the generator was waiting for the due time
	shed    bool
	err     error
	reports []*pmuoutage.Report
}

func (r *served) ok() bool { return r.err == nil }

// sendDetect posts one 1-sample detect request through the client.
func (e *env) sendDetect(ctx context.Context, pool *servePool, idx int, spans *spanLog, ids *requestIDs, r *served) {
	r.pool = pool.Requests[idx%len(pool.Requests)]
	id := ""
	if spans != nil {
		id = ids.next()
		ctx = obs.WithTraceID(ctx, id)
	}
	r.start = time.Now()
	reps, err := e.cli.Detect(ctx, shardName, []pmuoutage.Sample{pool.Samples[r.pool].Sample})
	r.end = time.Now()
	spans.record(id, layerClient, "/v1/detect", r.start, r.end)
	r.reports, r.err = reps, err
	var se *client.ServerError
	if errors.As(err, &se) && se.Status == http.StatusTooManyRequests {
		r.shed = true
	}
}

// runRung sends one open-loop rate for d: Poisson arrivals drawn from
// rng, spread over the generator goroutines. first is the request index
// the rung starts at.
func (e *env) runRung(ctx context.Context, rate int, d time.Duration, rng *rand.Rand, pool *servePool, first int, spans *spanLog, ids *requestIDs) []served {
	var offsets []time.Duration
	for t := rng.ExpFloat64() / float64(rate); t < d.Seconds(); t += rng.ExpFloat64() / float64(rate) {
		offsets = append(offsets, time.Duration(t*float64(time.Second)))
	}
	out := make([]served, len(offsets))
	base := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(out) || ctx.Err() != nil {
					return
				}
				r := &out[i]
				r.due = base.Add(offsets[i])
				if wait := time.Until(r.due); wait > 0 {
					r.idle = true
					time.Sleep(wait)
				}
				e.sendDetect(ctx, pool, first+i, spans, ids, r)
			}
		}()
	}
	wg.Wait()
	return out
}

// reloadResult is one identity-patch broadcast through the router.
type reloadResult struct {
	d   time.Duration
	err error
}

// reloadLoop broadcasts the identity patch through the router's
// /v1/reload every serveReloadEvery until stop closes.
func (e *env) reloadLoop(ctx context.Context, stop <-chan struct{}, spans *spanLog, ids *requestIDs) []reloadResult {
	body, err := json.Marshal(api.ReloadRequest{Shard: shardName, PatchPath: e.patch})
	if err != nil {
		return []reloadResult{{err: err}}
	}
	var out []reloadResult
	t := time.NewTicker(serveReloadEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-ctx.Done():
			return out
		case <-t.C:
		}
		rctx := ctx
		id := ""
		if spans != nil {
			id = ids.next()
			rctx = obs.WithTraceID(ctx, id)
		}
		start := time.Now()
		raw, err := e.cli.PostRaw(rctx, "/v1/reload", "application/json", body)
		end := time.Now()
		spans.record(id, layerClient, "/v1/reload", start, end)
		if err == nil {
			var fr api.FleetReload
			switch {
			case raw.Status != http.StatusOK:
				err = fmt.Errorf("reload answered HTTP %d: %s", raw.Status, raw.Body)
			case json.Unmarshal(raw.Body, &fr) != nil:
				err = fmt.Errorf("reload answer undecodable: %s", raw.Body)
			case fr.Failed:
				err = fmt.Errorf("reload failed on a backend: %s", raw.Body)
			}
		}
		out = append(out, reloadResult{d: end.Sub(start), err: err})
	}
}

// rungStats summarises one ladder rate.
type rungStats struct {
	rate                   int
	sent, ok, shed, failed int
	lat                    summary
	genLag                 summary
	backlogMS              float64
	meets                  bool
	cpu                    time.Duration // process CPU time used during the rate
}

func summarizeRung(rate int, rs []served) rungStats {
	st := rungStats{rate: rate, sent: len(rs)}
	var lat, lag timings
	for i := range rs {
		r := &rs[i]
		// A request is timed from its due time, so waits that a slow
		// response imposed on later sends count. Only the generator's own
		// wake-up lateness, reported as genLag, is left out.
		origin := r.due
		if r.idle {
			origin = r.start
			lag.add(r.start.Sub(r.due))
		}
		switch {
		case r.ok():
			st.ok++
			lat.add(r.end.Sub(origin))
		case r.shed:
			st.shed++
			lat.ms = append(lat.ms, math.Inf(1))
		default:
			st.failed++
			lat.ms = append(lat.ms, math.Inf(1))
		}
	}
	st.lat, st.genLag = lat.summary(), lag.summary()
	// Backlog: how late the last sends of the rate started. A backlog that
	// grew through the rate shows as a start far behind schedule.
	for i := max(0, len(rs)-10); i < len(rs); i++ {
		st.backlogMS = max(st.backlogMS, float64(rs[i].start.Sub(rs[i].due))/1e6)
	}
	st.meets = st.shed == 0 && st.failed == 0 && st.lat.P99 <= serveLimitMS && st.backlogMS <= serveLimitMS
	return st
}

// serveRun is the result of one pass over the ladder.
type serveRun struct {
	reqs    []served
	rungs   []rungStats
	reloads []reloadResult
}

// ladder runs the rates with reload broadcasts beside them.
func (e *env) ladder(ctx context.Context, seed int64, rungs []rung, pool *servePool, spans *spanLog, ids *requestIDs) serveRun {
	var run serveRun
	rng := rand.New(rand.NewSource(seed))
	stop := make(chan struct{})
	var reloads []reloadResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reloads = e.reloadLoop(ctx, stop, spans, ids)
	}()
	for _, r := range rungs {
		cpu := cpuTime()
		rs := e.runRung(ctx, r.rate, r.d, rng, pool, len(run.reqs), spans, ids)
		st := summarizeRung(r.rate, rs)
		st.cpu = cpuTime() - cpu
		run.rungs = append(run.rungs, st)
		run.reqs = append(run.reqs, rs...)
	}
	close(stop)
	wg.Wait()
	run.reloads = reloads
	return run
}

// refRung returns the stats of the reference rate.
func (r serveRun) refRung() rungStats {
	for _, st := range r.rungs {
		if st.rate == serveRefRate {
			return st
		}
	}
	return rungStats{}
}

// perCPUSecond is the number of requests a rate answered per second of
// process CPU time (client, router and backends together).
func (st rungStats) perCPUSecond() float64 { return float64(st.ok) / st.cpu.Seconds() }

// check verifies every answered request against a direct DetectBatch on
// the same sample and folds counts into o.
func (r serveRun) check(o *outcome, want [][]*pmuoutage.Report) {
	for i := range r.reqs {
		q := &r.reqs[i]
		o.attempted++
		if !q.ok() {
			o.failed++
			if !q.shed {
				o.problem("detect request failed: %v", q.err)
			}
			continue
		}
		if err := httpserve.CompareReports(q.reports, want[q.pool]); err != nil {
			o.failed++
			o.problem("request %d: %v", i, err)
		}
	}
	for _, rl := range r.reloads {
		o.attempted++
		if rl.err != nil {
			o.failed++
			o.problem("identity patch broadcast: %v", rl.err)
		}
	}
}

// serveReference answers every pool sample with a direct DetectBatch.
func serveReference(ctx context.Context, sys *pmuoutage.System, pool *servePool) ([][]*pmuoutage.Report, error) {
	want := make([][]*pmuoutage.Report, len(pool.Samples))
	for i, l := range pool.Samples {
		r, err := sys.DetectBatchContext(ctx, []pmuoutage.Sample{l.Sample})
		if err != nil {
			return nil, fmt.Errorf("reference detect %d: %w", i, err)
		}
		want[i] = r
	}
	return want, nil
}

func runServe(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	setupS, e, err := timeSetups(cfg, 7, func() (*env, error) { return setup(ctx, serveCase, serveBackends, true) }, (*env).close)
	if err != nil {
		return nil, err
	}
	defer func() { e.close() }()
	o.e2e["setup_s"] = setupS
	o.layers["pmuoutage.train_s"], o.layers["pmuoutage.boot_ms"] = e.s.trainS, e.s.bootMS
	if err := e.writePatch(ctx, cfg.tmp); err != nil {
		return nil, err
	}
	pool, err := newServePool(ctx, e.s.sys, cfg.seed, 400, 1<<16, serveOutageShare)
	if err != nil {
		return nil, err
	}
	want, err := serveReference(ctx, e.s.sys, pool)
	if err != nil {
		return nil, err
	}

	if !cfg.trace {
		rss := startRSS()
		run := e.ladder(ctx, cfg.seed, serveLadder(cfg, 1), pool, nil, nil)
		o.e2e["rss_peak_mb"] = rss.end()
		run.check(o, want)
		serveQuality(cfg, o, run, pool)
		ref := run.refRung()
		o.e2e["throughput_per_cpu_s"], o.e2e["p50_ms"] = ref.perCPUSecond(), ref.lat.P50
		reportServe(cfg, o, run)
		return o, nil
	}

	// Traced: an untraced and a traced pass over a half-length ladder on
	// a fresh fleet each, then the direct layer probes.
	plain := e.ladder(ctx, cfg.seed, serveLadder(cfg, 0.5), pool, nil, nil)
	plain.check(o, want)
	e.close()
	spans := newSpanLog()
	patch := e.patch
	if e, err = boot(ctx, e.s, serveBackends, true, spans); err != nil {
		return nil, err
	}
	e.patch = patch
	before := e.f.stageTotals()
	var ids requestIDs
	traced := e.ladder(ctx, cfg.seed, serveLadder(cfg, 0.5), pool, spans, &ids)
	traced.check(o, want)
	serveQuality(cfg, o, traced, pool)
	o.layers["trace.overhead"] = traced.refRung().lat.P50 / plain.refRung().lat.P50
	cfg.say("  trace overhead      %.4f (ref-rate p50 untraced %.4f ms, traced %.4f ms)",
		o.layers["trace.overhead"], plain.refRung().lat.P50, traced.refRung().lat.P50)
	// The layer probes get the samples the first requests send, so the
	// gate/score mix is the traffic's 95/5 mix, not the pool's.
	sent := make([]labelled, serveProbeRequests)
	for i := range sent {
		sent[i] = pool.Samples[pool.Requests[i]]
	}
	if err := probeLayers(ctx, e.s, sent, o); err != nil {
		return nil, err
	}
	stackLayers(o, spans.spans(), e.f, before, "/v1/detect", 0)
	return o, nil
}

// serveQuality scores Eq. 12 over the ladder's answered requests and
// applies the realism guard to the normal ones.
func serveQuality(cfg config, o *outcome, run serveRun, pool *servePool) {
	var all sampleQuality
	var outage metrics.Accumulator
	normals, flagged := 0, 0
	for i := range run.reqs {
		q := &run.reqs[i]
		if !q.ok() || len(q.reports) != 1 {
			continue
		}
		l := pool.Samples[q.pool]
		all.add(l, q.reports[0])
		if l.normal() {
			normals++
			if q.reports[0].Outage {
				flagged++
			}
		} else {
			outage.Add(truth(l.Line), detected(q.reports[0]))
		}
	}
	all.record(o)
	if normals == 0 || float64(flagged)/float64(normals) > serveNormalFlagBound {
		o.problem("realism guard: %d/%d normal requests flagged (bound %.2f)", flagged, normals, serveNormalFlagBound)
	}
	cfg.say("  ia                  %.6f (outage requests: ia %.6f fa %.6f over %d)", all.eq12.IA(), outage.IA(), outage.FA(), outage.N())
	cfg.say("  fa                  %.6f", all.eq12.FA())
	cfg.say("  delay_samples       %.6f (%d of %d outage requests name the line)", all.delay(), all.hits, all.outages)
	cfg.say("  normal flagged      %d/%d", flagged, normals)
}

func reportServe(cfg config, o *outcome, run serveRun) {
	maxRPS := 0
	cfg.say("  rate/s   sent     ok   shed failed    p50_ms    p99_ms  tail         genlag_p50/p90_ms backlog_ms meets")
	for _, st := range run.rungs {
		cfg.say("  %6d %6d %6d %6d %6d %9.4f %9.4f  p%-5g%9.4f %8.4f %8.4f %10.4f %v",
			st.rate, st.sent, st.ok, st.shed, st.failed, st.lat.P50, st.lat.P99, st.lat.TailP, st.lat.Tail,
			st.genLag.P50, st.genLag.P90, st.backlogMS, st.meets)
		if st.meets {
			maxRPS = st.rate
		}
	}
	ref := run.refRung()
	if lag := ref.genLag.P50; lag > serveGenLagLimitMS {
		o.problem("load generator fell behind its own schedule: median wake lag %.3f ms at %d/s (limit %.1f ms)", lag, serveRefRate, serveGenLagLimitMS)
	}
	cfg.say("  serve_p50_ms        %.4f ms (at %d/s, from scheduled send)", ref.lat.P50, serveRefRate)
	cfg.say("  serve_p99_ms        %.4f ms (%s)", ref.lat.P99, ref.lat)
	cfg.say("  serve_max_rps       %d /s (p99 <= %.0f ms, no backlog)", maxRPS, serveLimitMS)
	cfg.say("  served per CPU-s    %.2f /s (at %d/s)", ref.perCPUSecond(), serveRefRate)
	var rl timings
	for _, r := range run.reloads {
		rl.add(r.d)
	}
	cfg.say("  reloads             %d, %s", len(run.reloads), rl.summary())
}
