// Package harness is the end-to-end smoke harness of the serving
// stack: an in-process fleet builder (loopback servers, backends booted
// from a recipe or a registry fingerprint, registry publish, the
// router) and a table of rows that drive it over real HTTP, each
// checking its own assertions:
//
//	serve  ieee14 on one backend: detect (binary and JSON bodies),
//	       reload, ingest, trace, metrics
//	scale  the serve checks on synth300 (sparse power flow)
//	fleet  registry, router, canary, a kill mid-stream, promotion
//	soak   a traced fleet under traffic and churn; SOAK_report.json
//
// cmd/outagesoak runs the table.
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/client"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/wire"
)

// Shard names the single shard every harness backend serves.
const Shard = "smoke"

// quiet logs at debug level into a discard sink: rows exercise the
// full access and lifecycle log path without printing it.
var quiet = obs.NewTextLogger(io.Discard, slog.LevelDebug)

// recipe is the training recipe of every row: DC power flow, seed 7.
func recipe(caseName string, steps int) pmuoutage.Options {
	return pmuoutage.Options{Case: caseName, TrainSteps: steps, UseDC: true, Seed: 7}
}

// Options tunes a run of the table.
type Options struct {
	// SoakDuration is the soak row's traffic phase (default 6 s).
	SoakDuration time.Duration
	// ReportPath is the soak row's report file (default SOAK_report.json).
	ReportPath string
}

// Scenario is one row of the table.
type Scenario struct {
	Name string
	Run  func(context.Context, Options) error
}

// scenarios is the table, in the order "all" runs it.
var scenarios = []Scenario{
	{"serve", func(ctx context.Context, _ Options) error { return serveRow(ctx, "ieee14", 12) }},
	{"scale", func(ctx context.Context, _ Options) error { return serveRow(ctx, "synth300", 8) }},
	{"fleet", func(ctx context.Context, _ Options) error { return fleetRow(ctx) }},
	{"soak", soakRow},
}

// Select returns the named row, or every row for "all".
func Select(name string) ([]Scenario, error) {
	var rows []Scenario
	for _, sc := range scenarios {
		if name == "all" || name == sc.Name {
			rows = append(rows, sc)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("harness: unknown scenario %q", name)
	}
	return rows, nil
}

// newClient is a retry-free client: a row sees every failure as it
// happens.
func newClient(base string) (*client.Client, error) {
	return client.New(client.Config{BaseURL: base, MaxRetries: -1})
}

// call sends in as JSON (a GET when in is nil) to path and decodes the
// 200 answer into out.
func call(ctx context.Context, cl *client.Client, path string, in, out any) error {
	var raw *client.RawResponse
	var err error
	if in == nil {
		raw, err = cl.GetRaw(ctx, path)
	} else {
		var body []byte
		if body, err = json.Marshal(in); err == nil {
			raw, err = cl.PostRaw(ctx, path, "application/json", body)
		}
	}
	if err != nil {
		return err
	}
	if raw.Status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, raw.Status, raw.Body)
	}
	return json.Unmarshal(raw.Body, out)
}

// postFrame sends one sample as a binary wire frame to the shard's
// ingest route.
func postFrame(ctx context.Context, cl *client.Client, seq uint32, s pmuoutage.Sample) (*client.RawResponse, error) {
	var f wire.Frame
	if err := f.Pack(seq, s.Vm, s.Va, nil); err != nil {
		return nil, err
	}
	enc, err := wire.AppendFrame(nil, &f)
	if err != nil {
		return nil, err
	}
	return cl.PostRaw(ctx, "/v1/ingest?shard="+Shard, api.FrameContentType, enc)
}

// truth is a known-outage workload, two samples of an outage on the
// first valid line, with the library's own answer to it.
type truth struct {
	line    int
	samples []pmuoutage.Sample
	want    []*pmuoutage.Report
}

func newTruth(ctx context.Context, sys *pmuoutage.System) (*truth, error) {
	t := &truth{line: sys.ValidLines()[0]}
	var err error
	if t.samples, err = sys.SimulateOutageContext(ctx, []int{t.line}, 2); err != nil {
		return nil, err
	}
	t.want, err = sys.DetectBatchContext(ctx, t.samples)
	return t, err
}

// check sends the samples through cl and requires the library's
// answer, byte for byte, flagging the outage.
func (t *truth) check(ctx context.Context, cl *client.Client) error {
	got, err := cl.Detect(ctx, Shard, t.samples)
	if err != nil {
		return err
	}
	if err := httpserve.CompareReports(got, t.want); err != nil {
		return err
	}
	if !got[0].Outage {
		return fmt.Errorf("detect on line %d reported no outage", t.line)
	}
	return nil
}

// checkJSON is check over one JSON detect body, the transport of
// non-Go callers, where the client sends wire frames.
func (t *truth) checkJSON(ctx context.Context, cl *client.Client) error {
	var resp api.DetectResponse
	if err := call(ctx, cl, "/v1/detect", api.DetectRequest{Shard: Shard, Samples: t.samples}, &resp); err != nil {
		return err
	}
	return httpserve.CompareReports(resp.Reports, t.want)
}

// classify scores an answer: correct when an outage report names the
// true line, alarmed when any report claims an outage.
func (t *truth) classify(reps []*pmuoutage.Report) (correct, alarmed bool) {
	for _, r := range reps {
		if r != nil && r.Outage {
			alarmed = true
			for _, l := range r.Lines {
				correct = correct || l.Index == t.line
			}
		}
	}
	return correct, alarmed
}

// waitProbed polls the router's backend table, for at most five
// seconds, until a probe has listed a shard on the primary backend at
// url.
func waitProbed(ctx context.Context, cl *client.Client, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	for {
		var fleet api.FleetStatus
		if err := call(ctx, cl, "/v1/backends", nil, &fleet); err != nil {
			return err
		}
		for _, b := range fleet.Primary {
			if b.URL == url && len(b.Shards) > 0 {
				return nil
			}
		}
		if !sleepCtx(ctx, 5*time.Millisecond) {
			return fmt.Errorf("router never listed the shards of %s: %w", url, ctx.Err())
		}
	}
}

// sleepCtx waits d unless ctx ends first, and reports whether ctx is
// still live.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
