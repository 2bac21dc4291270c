package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pmuoutage/api"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/router"
)

// serveRow boots one backend that trains caseName itself and checks
// the single-backend contract over real HTTP: detect byte-identical to
// the library over both bodies (the client's wire frames and one JSON
// body), a retrain reload that bumps the generation and keeps answers
// byte-identical, binary ingest, trace echo, /metrics, and a clean
// graceful shutdown.
func serveRow(ctx context.Context, caseName string, steps int) error {
	var f Fleet
	defer f.Close()
	b, err := f.AddBackend(ctx, recipe(caseName, steps), "")
	if err != nil {
		return err
	}
	sys, err := b.System(ctx)
	if err != nil {
		return err
	}
	tr, err := newTruth(ctx, sys)
	if err != nil {
		return err
	}
	if err := tr.check(ctx, b.Cli); err != nil {
		return err
	}
	if err := tr.checkJSON(ctx, b.Cli); err != nil {
		return fmt.Errorf("JSON detect body: %w", err)
	}

	// A retrain under the same recipe yields the same model: the
	// generation bumps and the answers stay byte-identical.
	gen := b.Svc.Shards()[0].Generation
	res, err := b.Cli.Reload(ctx, Shard, "")
	if err != nil {
		return err
	}
	if res.Generation != gen+1 {
		return fmt.Errorf("reload generation = %d, want %d", res.Generation, gen+1)
	}
	if res.Model != sys.Model().Fingerprint() {
		return fmt.Errorf("reloaded model fingerprint %s differs from the original %s", res.Model, sys.Model().Fingerprint())
	}
	if err := tr.check(ctx, b.Cli); err != nil {
		return fmt.Errorf("after reload: %w", err)
	}

	raw, err := postFrame(ctx, b.Cli, 1, tr.samples[0])
	if err != nil {
		return err
	}
	var ing api.IngestResponse
	if raw.Status != http.StatusOK || json.Unmarshal(raw.Body, &ing) != nil || ing.Shard != Shard {
		return fmt.Errorf("binary ingest: HTTP %d: %s", raw.Status, raw.Body)
	}

	const traceID = "feedfacecafe0001"
	if raw, err = b.Cli.GetRaw(obs.WithTraceID(ctx, traceID), "/healthz"); err != nil {
		return err
	}
	if raw.TraceID != traceID {
		return fmt.Errorf("trace echo: sent %q, got %q back", traceID, raw.TraceID)
	}
	if raw, err = b.Cli.GetRaw(ctx, "/metrics"); err != nil {
		return err
	}
	if raw.Status != http.StatusOK {
		return fmt.Errorf("GET /metrics: HTTP %d", raw.Status)
	}
	if err := checkMetrics(string(raw.Body)); err != nil {
		return err
	}

	// A clean graceful shutdown drains every request in time.
	sdCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err = b.srv.http.Shutdown(sdCtx)
	<-b.srv.done
	return err
}

// checkMetrics asserts a /metrics body shows the serve row's traffic:
// every detect, reload and ingest counter at least 1, and cumulative
// histogram buckets that never decrease with le.
func checkMetrics(body string) error {
	values := map[string]float64{}
	last := map[string]float64{} // bucket series (labels before le) → count
	for _, line := range strings.Split(body, "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("parsing %q: %v", line, err)
		}
		values[line[:sp]] = v
		cut := strings.Index(line, `le="`)
		if cut < 0 || !strings.HasPrefix(line, "pmu_stage_seconds_bucket{") && !strings.HasPrefix(line, "pmu_http_seconds_bucket{") {
			continue
		}
		if prev, ok := last[line[:cut]]; ok && v < prev {
			return fmt.Errorf("bucket counts decreased within %s: %v after %v", line[:cut], v, prev)
		}
		last[line[:cut]] = v
	}
	for _, series := range []string{
		`pmu_requests_total{shard="` + Shard + `"}`,
		`pmu_batches_total{shard="` + Shard + `"}`,
		`pmu_samples_total{shard="` + Shard + `"}`,
		`pmu_reloads_total{shard="` + Shard + `"}`,
		`pmu_ingest_frames_total{shard="` + Shard + `",mode="binary"}`,
		`pmu_http_requests_total{path="/v1/detect"}`,
		`pmu_http_requests_total{path="/v1/ingest"}`,
	} {
		if v, ok := values[series]; !ok {
			return fmt.Errorf("/metrics lacks series %s", series)
		} else if v < 1 {
			return fmt.Errorf("%s = %v, want at least 1", series, v)
		}
	}
	if len(last) == 0 {
		return errors.New("/metrics has no stage histogram buckets")
	}
	return nil
}

// fleetRow drives the fleet acceptance path: two primaries and a
// full-shadow canary, all booted from the registry by one fingerprint
// that is also the candidate; 30 routed detects, 20 of them after a
// primary is killed mid-stream; an all-identical, promotable canary
// report; and a promotion that flags the dead primary, moves the
// survivor onto the candidate through a 304 conditional pull, and
// leaves the fleet serving.
func fleetRow(ctx context.Context) error {
	var f Fleet
	defer f.Close()
	opts := recipe("ieee14", 12)
	sys, err := f.Publish(ctx, opts)
	if err != nil {
		return err
	}
	fp := sys.Model().Fingerprint()
	var bs [3]*Backend
	for i := range bs {
		if bs[i], err = f.AddBackend(ctx, opts, fp); err != nil {
			return err
		}
		// A shard loads its model after AddBackend returns; a shadow copy
		// reaching the canary before then would count as a canary error.
		if _, err := bs[i].System(ctx); err != nil {
			return err
		}
	}
	primA, primB, canary := bs[0], bs[1], bs[2]
	if err := f.StartRouter(ctx, router.Config{
		Backends:       []string{primA.URL, primB.URL},
		CanaryBackends: []string{canary.URL},
		Candidate:      fp,
		CanaryPercent:  100,
		MinPairs:       1,
	}); err != nil {
		return err
	}
	tr, err := newTruth(ctx, sys)
	if err != nil {
		return err
	}
	killed := make(chan error, 1)
	for i := 0; i < 30; i++ {
		if i == 10 {
			go func() { killed <- primA.Kill() }()
		}
		if err := tr.check(ctx, f.Cli); err != nil {
			return fmt.Errorf("routed detect %d: %w", i, err)
		}
	}
	if err := <-killed; err != nil {
		return fmt.Errorf("killing backend: %w", err)
	}

	var report api.CanaryReport
	if err := call(ctx, f.Cli, "/v1/canary/report", nil, &report); err != nil {
		return err
	}
	if report.Pairs == 0 || report.Identical != report.Pairs || report.Mismatched != 0 {
		return fmt.Errorf("shadow responses not byte-identical: %d/%d identical, %d mismatched",
			report.Identical, report.Pairs, report.Mismatched)
	}
	if !report.Promotable {
		return fmt.Errorf("canary report not promotable: %v", report.Reasons)
	}

	// Promotion reloads the shards the router's probes have listed, and
	// the detects above can finish before its first probe pass.
	if err := waitProbed(ctx, f.Cli, primB.URL); err != nil {
		return err
	}
	var promoted api.PromoteResponse
	if err := call(ctx, f.Cli, "/v1/canary/promote", api.PromoteRequest{}, &promoted); err != nil {
		return err
	}
	if !promoted.Failed {
		return errors.New("promotion with a dead backend did not set failed")
	}
	reloaded := 0
	for _, br := range promoted.Results {
		for _, res := range br.Results {
			if br.Backend == primB.URL && br.Error == "" && res.Model == fp {
				reloaded++
			}
		}
	}
	if reloaded == 0 {
		return errors.New("promotion did not reload the surviving backend onto the candidate")
	}
	if pulls, notMod := primB.Reg.Stats(); notMod == 0 {
		return fmt.Errorf("registry conditional pull not exercised: %d pulls, %d not-modified", pulls, notMod)
	}
	if err := tr.check(ctx, f.Cli); err != nil {
		return fmt.Errorf("routed detect after promotion: %w", err)
	}
	return nil
}
