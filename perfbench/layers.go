package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/pmunet"
	"pmuoutage/internal/powerflow"
	"pmuoutage/internal/stream"
	"pmuoutage/internal/wire"
)

// probeMin is the least time a repeated layer probe measures for.
const probeMin = 200 * time.Millisecond

// repeat calls fn until it has run at least probeMin and min times, and
// returns the mean duration of one call.
func repeat(min int, fn func() error) (time.Duration, error) {
	start := time.Now()
	n := 0
	for n < min || time.Since(start) < probeMin {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(start) / time.Duration(n), nil
}

// probeLayers times the lower layers directly, from outside, on the
// workload's grid and inputs: power flow, data generation, detector
// training and per-sample detection, the par pool, the stream monitor
// and the wire codec.
func probeLayers(ctx context.Context, s *system, inputs []labelled, o *outcome) error {
	g, err := cases.Load(s.caseKey)
	if err != nil {
		return err
	}
	dc, err := repeat(5, func() error { _, err := powerflow.SolveDC(g); return err })
	if err != nil {
		return fmt.Errorf("dc power flow: %w", err)
	}
	ac, err := repeat(5, func() error { _, err := powerflow.SolveAC(g, powerflow.Options{}); return err })
	if err != nil {
		return fmt.Errorf("ac power flow: %w", err)
	}
	o.layers["powerflow.dc_ms"], o.layers["powerflow.ac_ms"] = ms(dc), ms(ac)

	opts := s.model.Options()
	t0 := time.Now()
	data, err := dataset.GenerateContext(ctx, g, dataset.GenConfig{Steps: opts.TrainSteps, Seed: opts.Seed, UseDC: opts.UseDC, Workers: opts.Workers})
	if err != nil {
		return fmt.Errorf("generating data: %w", err)
	}
	t1 := time.Now()
	clusters := opts.Clusters
	if clusters <= 0 {
		clusters = max(3, g.N()/10)
	}
	nw, err := pmunet.Build(g, clusters)
	if err != nil {
		return err
	}
	t2 := time.Now()
	det, err := detect.TrainContext(ctx, data, nw, detect.Config{Workers: opts.Workers})
	if err != nil {
		return fmt.Errorf("training detector: %w", err)
	}
	o.layers["dataset.generate_s"], o.layers["detect.train_s"] = t1.Sub(t0).Seconds(), time.Since(t2).Seconds()

	samples := make([]dataset.Sample, len(inputs))
	for i, l := range inputs {
		samples[i] = dataset.Sample{Vm: l.Sample.Vm, Va: l.Sample.Va}
		if len(l.Sample.Missing) > 0 {
			m := pmunet.NoneMissing(g.N())
			for _, b := range l.Sample.Missing {
				m[b] = true
			}
			samples[i].Mask = m
		}
	}

	// Per-sample detection, split by whether the sample passed the
	// energy gate into full scoring.
	var gate, score time.Duration
	nGate, nScore := 0, 0
	for start := time.Now(); nGate+nScore < len(samples) || time.Since(start) < probeMin; {
		for _, smp := range samples {
			t := time.Now()
			r, err := det.Detect(smp)
			d := time.Since(t)
			if err != nil {
				return fmt.Errorf("detect: %w", err)
			}
			if r.Outage {
				score += d
				nScore++
			} else {
				gate += d
				nGate++
			}
		}
	}
	o.layers["detect.gate_us"] = us(gate, nGate)
	o.layers["detect.score_us"] = us(score, nScore)
	o.layers["detect.outage_share"] = float64(nScore) / float64(nGate+nScore)

	// par: the sum of single-sample Detect times over one DetectBatch's
	// wall time on the same samples, at the workload's worker count.
	batch := make([]pmuoutage.Sample, len(inputs))
	for i, l := range inputs {
		batch[i] = l.Sample
	}
	var single time.Duration
	for _, smp := range batch {
		t := time.Now()
		if _, err := s.sys.DetectContext(ctx, smp); err != nil {
			return err
		}
		single += time.Since(t)
	}
	t3 := time.Now()
	if _, err := s.sys.DetectBatchContext(ctx, batch); err != nil {
		return err
	}
	o.layers["par.speedup"] = single.Seconds() / time.Since(t3).Seconds()

	mon, err := stream.NewMonitor(det, stream.Config{})
	if err != nil {
		return err
	}
	var ing time.Duration
	nIng := 0
	for start := time.Now(); nIng < len(samples) || time.Since(start) < probeMin; {
		for _, smp := range samples {
			t := time.Now()
			if _, err := mon.Ingest(smp); err != nil {
				return fmt.Errorf("monitor ingest: %w", err)
			}
			ing += time.Since(t)
			nIng++
		}
	}
	o.layers["stream.ingest_us"] = us(ing, nIng)

	return probeWire(inputs, o)
}

// probeWire times the frame codec over the inputs and counts its
// allocations per operation.
func probeWire(inputs []labelled, o *outcome) error {
	frames := make([][]byte, len(inputs))
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	var buf []byte
	encode := func(i int) error {
		s := inputs[i].Sample
		if err := f.Pack(uint32(i+1), s.Vm, s.Va, missingMask(s)); err != nil {
			return err
		}
		var err error
		buf, err = wire.AppendFrame(buf[:0], f)
		return err
	}
	for i := range inputs {
		if err := encode(i); err != nil {
			return fmt.Errorf("encoding frame: %w", err)
		}
		frames[i] = append([]byte(nil), buf...)
	}
	i := 0
	enc, err := repeat(10000, func() error { i++; return encode(i % len(inputs)) })
	if err != nil {
		return err
	}
	dec, err := repeat(10000, func() error {
		i++
		_, err := wire.DecodeFrame(frames[i%len(frames)], f)
		return err
	})
	if err != nil {
		return fmt.Errorf("decoding frame: %w", err)
	}
	o.layers["wire.encode_ns"], o.layers["wire.decode_ns"] = float64(enc.Nanoseconds()), float64(dec.Nanoseconds())
	o.layers["wire.encode_allocs"] = testing.AllocsPerRun(1000, func() { i++; _ = encode(i % len(inputs)) })
	o.layers["wire.decode_allocs"] = testing.AllocsPerRun(1000, func() {
		i++
		_, _ = wire.DecodeFrame(frames[i%len(frames)], f)
	})
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / 1e3 / float64(n)
}

// stackLayers fills the service, httpserve, router and client metrics
// from the spans recorded around the fleet's handlers and client calls,
// the service's stage histograms (minus the totals in before) and the
// router's counters. dataPath picks the request spans that count;
// ingestUS is the per-request service time of ingest requests, which
// the service does not split into stages. Metrics already set are kept.
func stackLayers(o *outcome, spans []span, f *fleet, before map[string]stageTotal, dataPath string, ingestUS float64) {
	set := func(name string, v float64) {
		if _, ok := o.layers[name]; !ok {
			o.layers[name] = v
		}
	}
	after := f.stageTotals()
	stage := func(name string) (n uint64, meanMS float64) {
		a, b := after[name], before[name]
		if n = a.count - b.count; n > 0 {
			meanMS = (a.sum - b.sum) / float64(n) * 1e3
		}
		return n, meanMS
	}
	_, queue := stage("queue")
	_, coalesce := stage("coalesce")
	batches, det := stage("detect")
	_, encode := stage("encode")
	if batches > 0 {
		set("service.queue_ms", queue)
		set("service.coalesce_ms", coalesce)
		set("service.detect_ms", det)
		set("service.encode_ms", encode)
		set("service.batch_samples", float64(after["samples"].count-before["samples"].count)/float64(batches))
		set("service.shed", float64(after["shed"].count-before["shed"].count))
	}

	data := layerStats(spans, func(s span) bool { return s.path == dataPath })
	serviceMS := queue + coalesce + det + encode
	if dataPath != "/v1/detect" {
		serviceMS = ingestUS / 1e3
	}
	if st := data[layerHTTPServe]; st != nil {
		set("httpserve.handler_ms", st.meanMS())
		set("httpserve.self_ms", st.meanMS()-serviceMS)
	}
	if st := data[layerClient]; st != nil {
		set("client.rtt_ms", st.meanMS())
		set("client.self_ms", st.selfMS())
	}
	if f.rt == nil {
		return
	}
	if st := data[layerRouter]; st != nil {
		set("router.handler_ms", st.meanMS())
		set("router.self_ms", st.selfMS())
	}
	if st := layerStats(spans, func(s span) bool { return s.path == "/v1/reload" })[layerRouter]; st != nil {
		set("router.reload_ms", st.meanMS())
	}
	set("router.failovers", float64(f.rt.Registry().CounterValue("router_failovers_total")))
}

// probeStack measures the serving layers a workload bypasses: a short,
// traced open-loop pass through a routed fleet booted from the
// workload's own model, with identity-patch broadcasts beside it.
func probeStack(ctx context.Context, cfg config, s *system, o *outcome) error {
	spans := newSpanLog()
	e, err := boot(ctx, s, serveBackends, true, spans)
	if err != nil {
		return err
	}
	defer e.close()
	if err := e.writePatch(ctx, cfg.tmp); err != nil {
		return err
	}
	pool, err := newServePool(ctx, s.sys, cfg.seed, 100, 1<<12, serveOutageShare)
	if err != nil {
		return err
	}
	want, err := serveReference(ctx, s.sys, pool)
	if err != nil {
		return err
	}
	before := e.f.stageTotals()
	var ids requestIDs
	run := e.ladder(ctx, cfg.seed, []rung{{200, time.Second}}, pool, spans, &ids)
	run.check(o, want)
	stackLayers(o, spans.spans(), e.f, before, "/v1/detect", 0)
	return nil
}
