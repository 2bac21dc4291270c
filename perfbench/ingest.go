package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/client"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/wire"
)

const (
	ingestCase = "ieee30"
	// The script: ingestEpisodes outage episodes of ingestLength frames,
	// each after ingestGap normal frames. Ten episodes of each of the 38
	// valid lines keep event_recall within about 0.03 across seeds; five
	// let it spread by 0.04.
	ingestEpisodes = 380
	ingestGap      = 20
	ingestLength   = 8
	// ingestNormalFlagBound is the realism guard on the script's normal
	// frames.
	ingestNormalFlagBound = 0.05
)

// streamRun is the record of one closed-loop send of the script.
type streamRun struct {
	rtt    timings
	events []*pmuoutage.Event // one entry per frame sent, nil without event
	errs   []error
	secs   float64
	cpu    time.Duration // process CPU time used while streaming
}

func (r streamRun) fps() float64 { return float64(len(r.events)) / r.secs }

// perCPUSecond is the number of frames answered per second of process
// CPU time (sender and backend together).
func (r streamRun) perCPUSecond() float64 { return float64(len(r.events)) / r.cpu.Seconds() }

// stream posts script frames, looping, as binary wire frames to
// /v1/ingest for d, waiting for each reply before the next frame as a
// PDC does. It sends at least the script's first full pass, which the
// event figures are scored on, even when that takes longer than d.
func (e *env) stream(ctx context.Context, sc *ingestScript, d time.Duration, spans *spanLog, ids *requestIDs) streamRun {
	var run streamRun
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	var buf []byte
	const path = "/v1/ingest?shard=" + shardName
	start, cpu := time.Now(), cpuTime()
	deadline := start.Add(d)
	for j := 0; (j < len(sc.Frames) || time.Now().Before(deadline)) && ctx.Err() == nil; j++ {
		s := sc.Frames[j%len(sc.Frames)].Sample
		rctx, id := ctx, ""
		if spans != nil {
			id = ids.next()
			rctx = obs.WithTraceID(ctx, id)
		}
		t0 := time.Now()
		err := f.Pack(uint32(j+1), s.Vm, s.Va, missingMask(s))
		var raw *client.RawResponse
		if err == nil {
			if buf, err = wire.AppendFrame(buf[:0], f); err == nil {
				raw, err = e.cli.PostRaw(rctx, path, httpserve.FrameContentType, buf)
			}
		}
		t1 := time.Now()
		spans.record(id, layerClient, "/v1/ingest", t0, t1)
		var resp api.IngestResponse
		if err == nil {
			if raw.Status != http.StatusOK {
				err = fmt.Errorf("ingest answered HTTP %d: %s", raw.Status, raw.Body)
			} else if err = json.Unmarshal(raw.Body, &resp); err != nil {
				err = fmt.Errorf("decoding ingest answer: %w", err)
			}
		}
		run.rtt.add(t1.Sub(t0))
		run.events = append(run.events, resp.Event)
		run.errs = append(run.errs, err)
	}
	run.secs, run.cpu = time.Since(start).Seconds(), cpuTime()-cpu
	return run
}

// missingMask expands a sample's missing-bus list to the wire's bool mask
// (nil when nothing is missing).
func missingMask(s pmuoutage.Sample) []bool {
	if len(s.Missing) == 0 {
		return nil
	}
	m := make([]bool, len(s.Vm))
	for _, i := range s.Missing {
		m[i] = true
	}
	return m
}

// check compares the served event sequence with a direct Monitor.Ingest
// replay of the same frames on a fresh monitor.
func (r streamRun) check(o *outcome, sys *pmuoutage.System, sc *ingestScript) error {
	mon, err := sys.NewMonitor(0, 0)
	if err != nil {
		return err
	}
	for j, ev := range r.events {
		o.attempted++
		if r.errs[j] != nil {
			o.failed++
			o.problem("frame %d: %v", j, r.errs[j])
			continue
		}
		want, err := mon.Ingest(sc.Frames[j%len(sc.Frames)].Sample)
		if err != nil {
			return fmt.Errorf("direct replay frame %d: %w", j, err)
		}
		g, _ := json.Marshal(ev)
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			o.failed++
			o.problem("frame %d: served event %s, direct Monitor.Ingest %s", j, g, w)
		}
	}
	return nil
}

// eventQuality scores the events of the script's first full pass.
type eventQuality struct {
	delay       float64 // mean samples from onset to the confirming event
	recall      float64 // episodes confirmed with the true line among the event's lines
	falseEvents int     // events raised during normal stretches
	detected    int
}

// precision is the share of alarms that were outages: episodes detected
// over episodes detected plus false events.
func (q eventQuality) precision() float64 {
	return float64(q.detected) / float64(q.detected+q.falseEvents)
}

func scoreEvents(events []*pmuoutage.Event, sc *ingestScript) eventQuality {
	var q eventQuality
	episodeAt := make([]int, len(sc.Frames))
	for i := range episodeAt {
		episodeAt[i] = -1
	}
	for k, ep := range sc.Episodes {
		for j := ep.Onset; j < ep.Onset+ep.Length; j++ {
			episodeAt[j] = k
		}
	}
	seen := make([]bool, len(sc.Episodes))
	hits, delaySum := 0, 0
	for j := 0; j < len(sc.Frames) && j < len(events); j++ {
		ev := events[j]
		if ev == nil {
			continue
		}
		k := episodeAt[j]
		if k < 0 {
			q.falseEvents++
			continue
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		q.detected++
		delaySum += j - sc.Episodes[k].Onset + 1
		for _, l := range ev.Lines {
			if l.Index == sc.Episodes[k].Line {
				hits++
				break
			}
		}
	}
	if q.detected > 0 {
		q.delay = float64(delaySum) / float64(q.detected)
	}
	q.recall = float64(hits) / float64(len(sc.Episodes))
	return q
}

// normalFlagShare is the share of the script's normal frames a direct
// Detect flags as outages.
func normalFlagShare(ctx context.Context, sys *pmuoutage.System, sc *ingestScript) (float64, int, error) {
	n, flagged := 0, 0
	for _, l := range sc.Frames {
		if !l.normal() {
			continue
		}
		r, err := sys.DetectContext(ctx, l.Sample)
		if err != nil {
			return 0, 0, err
		}
		n++
		if r.Outage {
			flagged++
		}
	}
	return float64(flagged) / float64(n), n, nil
}

func runIngest(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	setupS, e, err := timeSetups(cfg, 7, func() (*env, error) { return setup(ctx, ingestCase, 1, false) }, (*env).close)
	if err != nil {
		return nil, err
	}
	defer func() { e.close() }()
	o.e2e["setup_s"] = setupS
	o.layers["pmuoutage.train_s"], o.layers["pmuoutage.boot_ms"] = e.s.trainS, e.s.bootMS
	sc, err := newIngestScript(ctx, e.s.sys, ingestCase, cfg.seed, ingestEpisodes, ingestGap, ingestLength)
	if err != nil {
		return nil, err
	}
	share, normals, err := normalFlagShare(ctx, e.s.sys, sc)
	if err != nil {
		return nil, err
	}
	if share > ingestNormalFlagBound {
		o.problem("realism guard: %.4f of %d normal frames flagged (bound %.2f)", share, normals, ingestNormalFlagBound)
	}
	cfg.say("ingest-30: script of %d frames, %d episodes (%d-frame outages after %d normal), %.4f of normal frames flagged",
		len(sc.Frames), len(sc.Episodes), ingestLength, ingestGap, share)

	finish := func(run streamRun) error {
		if err := run.check(o, e.s.sys, sc); err != nil {
			return err
		}
		q := scoreEvents(run.events, sc)
		if q.detected == 0 {
			o.problem("no scripted outage episode raised an event")
		} else {
			o.e2e["accuracy"], o.e2e["alarm_precision"], o.e2e["delay_samples"] = q.recall, q.precision(), q.delay
		}
		cfg.say("  event_delay_samples %.4f samples (over %d detected episodes)", q.delay, q.detected)
		cfg.say("  event_recall        %.6f", q.recall)
		cfg.say("  false_events        %d (alarm precision %.6f)", q.falseEvents, q.precision())
		return nil
	}

	if !cfg.trace {
		rss := startRSS()
		run := e.stream(ctx, sc, cfg.duration(1), nil, nil)
		o.e2e["rss_peak_mb"] = rss.end()
		if err := finish(run); err != nil {
			return nil, err
		}
		lat := run.rtt.summary()
		o.e2e["throughput_per_cpu_s"], o.e2e["p50_ms"] = run.perCPUSecond(), lat.P50
		cfg.say("  ingest_fps          %.2f frames/s", run.fps())
		cfg.say("  ingest_p99_ms       %.4f ms (%s)", lat.P99, lat)
		cfg.say("  frames per CPU-s    %.2f /s", run.perCPUSecond())
		return o, nil
	}

	plain := e.stream(ctx, sc, cfg.duration(0.5), nil, nil)
	if err := finish(plain); err != nil {
		return nil, err
	}
	e.close()
	spans := newSpanLog()
	if e, err = boot(ctx, e.s, 1, false, spans); err != nil {
		return nil, err
	}
	before := e.f.stageTotals()
	var ids requestIDs
	traced := e.stream(ctx, sc, cfg.duration(0.5), spans, &ids)
	if err := finish(traced); err != nil {
		return nil, err
	}
	o.layers["trace.overhead"] = plain.fps() / traced.fps()
	cfg.say("  trace overhead      %.4f (untraced %.2f fps, traced %.2f fps)", o.layers["trace.overhead"], plain.fps(), traced.fps())
	if err := probeLayers(ctx, e.s, sc.Frames, o); err != nil {
		return nil, err
	}
	stackLayers(o, spans.spans(), e.f, before, "/v1/ingest", o.layers["stream.ingest_us"])
	if err := probeStack(ctx, cfg, e.s, o); err != nil {
		return nil, err
	}
	return o, nil
}
