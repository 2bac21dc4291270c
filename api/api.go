// Package api holds the HTTP wire types of the outage-detection
// serving tier: the request/response bodies of every /v1 endpoint that
// cmd/outaged serves, the artifact payloads of the model registry, and
// the fleet-level types cmd/outagerouter adds on top. The client
// package, internal/httpserve, internal/registry, and internal/router
// all consume these definitions, so a field added or renamed here is
// the single source of truth for both sides of the wire — there are no
// private mirror structs to drift out of sync (round-trip tests pin the
// encoded field names).
//
// Every exported struct field carries an explicit json tag (enforced by
// the gridlint wiretags analyzer): the wire name is pinned to the tag,
// never to the Go identifier, so renaming a field in code cannot
// silently break deployed clients.
package api

import "pmuoutage"

// FrameContentType marks a binary POST /v1/detect or /v1/ingest body:
// internal/wire frames back to back, one per sample (ingest reads the
// first), with the shard named by the ?shard= query parameter. Both
// routes answer with the same JSON response as their JSON bodies.
const FrameContentType = "application/x-pmu-frame"

// DetectRequest is the JSON body of POST /v1/detect. (Binary-mode
// detect posts one encoded wire frame per sample instead; see
// FrameContentType.)
type DetectRequest struct {
	Shard   string             `json:"shard"`
	Samples []pmuoutage.Sample `json:"samples"`
}

// DetectResponse is its reply: one report per sample, in order —
// exactly what the shard's System.DetectBatch returns.
type DetectResponse struct {
	Shard   string              `json:"shard"`
	Reports []*pmuoutage.Report `json:"reports"`
}

// IngestRequest is the JSON body of POST /v1/ingest. (Binary-mode
// ingest posts one encoded wire frame instead; see FrameContentType.)
type IngestRequest struct {
	Shard  string           `json:"shard"`
	Sample pmuoutage.Sample `json:"sample"`
}

// IngestResponse carries the confirmed event, if the sample triggered
// one. Binary-mode ingest answers with the same shape.
type IngestResponse struct {
	Shard string           `json:"shard"`
	Event *pmuoutage.Event `json:"event"`
}

// ReloadRequest is the body of POST /v1/reload: swap the named shard
// onto a new model. Exactly one source may be set — Path names an
// artifact file on the daemon's filesystem, Fingerprint names an
// artifact in the daemon's configured model registry (pulled with a
// conditional GET and verified against the fingerprint on receipt),
// PatchPath names an incremental patch file applied to the model the
// shard is currently serving (the patch is fingerprint-pinned to
// exactly one base, so a shard on any other model rejects it) — or
// none of the three, which retrains from the shard's options.
type ReloadRequest struct {
	Shard       string `json:"shard"`
	Path        string `json:"path,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	PatchPath   string `json:"patch_path,omitempty"`
}

// ReloadResult reports the shard's new incarnation after the swap: the
// bumped generation counter and the fingerprint of the model now
// serving.
type ReloadResult struct {
	Shard      string `json:"shard"`
	Generation uint64 `json:"generation"`
	Model      string `json:"model"`
}

// ShardStatus is one shard's public state snapshot — the element type
// of GET /v1/shards.
type ShardStatus struct {
	Name       string `json:"name"`
	Case       string `json:"case"`
	State      string `json:"state"`
	Err        string `json:"err,omitempty"`
	Buses      int    `json:"buses,omitempty"`
	Lines      int    `json:"lines,omitempty"`
	Restarts   uint64 `json:"restarts"`
	QueueDepth int    `json:"queue_depth"`
	// Generation counts model activations (initial training, rebuilds,
	// hot reloads); it bumps exactly when Model may have changed.
	Generation uint64 `json:"generation"`
	// Model is the serving model's content fingerprint.
	Model string `json:"model,omitempty"`
}

// ShardSnapshot is a point-in-time copy of one shard's counters — the
// value type of GET /v1/stats. Latency fields derive from the
// detect-stage histogram, the same cells GET /metrics renders.
type ShardSnapshot struct {
	Requests     uint64  `json:"requests"`
	Ingests      uint64  `json:"ingests"`
	Samples      uint64  `json:"samples"`
	Batches      uint64  `json:"batches"`
	Shed         uint64  `json:"shed"`
	Unavailable  uint64  `json:"unavailable"`
	Restarts     uint64  `json:"restarts"`
	Reloads      uint64  `json:"reloads"`
	FramesJSON   uint64  `json:"frames_json"`
	FramesBinary uint64  `json:"frames_binary"`
	MaxBatch     int     `json:"max_batch"`
	AvgBatch     float64 `json:"avg_batch"`
	AvgLatencyMS float64 `json:"avg_latency_ms"`
	P50LatencyMS float64 `json:"p50_latency_ms"`
	P95LatencyMS float64 `json:"p95_latency_ms"`
	P99LatencyMS float64 `json:"p99_latency_ms"`
	QueueDepth   int     `json:"queue_depth"`
	// Stages maps pipeline stage name (queue/coalesce/detect/encode)
	// to its cumulative latency histogram in seconds; the fleet
	// aggregator merges these across backends with Hist.Merge.
	Stages map[string]Hist `json:"stages,omitempty"`
}

// ErrorEnvelope is the uniform error body every daemon and the router
// answer with on a non-2xx status. Code is the stable machine-readable
// classification clients branch on (status text and Error are for
// humans and may change); Retryable mirrors the Retry-After header so
// non-HTTP-savvy clients can branch on the JSON; TraceID names the
// failing request in the server's structured logs.
type ErrorEnvelope struct {
	Code      Code   `json:"code,omitempty"`
	Error     string `json:"error"`
	Retryable bool   `json:"retryable"`
	TraceID   string `json:"trace_id,omitempty"`
}

// ModelInfo describes one artifact in the model registry.
type ModelInfo struct {
	// Fingerprint is the hex SHA-256 content fingerprint — the artifact's
	// registry key and its ETag on GET /v1/models/{fingerprint}.
	Fingerprint string `json:"fingerprint"`
	// Case is the grid case the model was trained on.
	Case string `json:"case"`
	// FormatVersion is the artifact format version the model carries.
	FormatVersion int `json:"format_version"`
	// Bytes is the encoded artifact size.
	Bytes int64 `json:"bytes"`
}

// ModelList is the reply of GET /v1/models.
type ModelList struct {
	Models []ModelInfo `json:"models"`
}

// BackendStatus is one backend's state as the router sees it — the
// element type of the router's GET /v1/backends pools.
type BackendStatus struct {
	URL string `json:"url"`
	// Healthy reports whether the backend is currently admitted to the
	// balancing rotation.
	Healthy bool `json:"healthy"`
	// Ejections counts how many times the backend has been ejected.
	Ejections uint64 `json:"ejections"`
	// InFlight is the number of proxied requests currently outstanding.
	InFlight int `json:"in_flight"`
	// QueueDepth is the backend's own queued-sample count from its last
	// /v1/stats probe (summed over shards).
	QueueDepth int `json:"queue_depth"`
	// LastError is the most recent probe or proxy failure ("" when the
	// backend is clean).
	LastError string `json:"last_error,omitempty"`
	// Shards is the backend's shard listing from its last successful
	// probe.
	Shards []ShardStatus `json:"shards,omitempty"`
}

// FleetStatus is the router's GET /v1/backends reply.
type FleetStatus struct {
	Primary []BackendStatus `json:"primary"`
	Canary  []BackendStatus `json:"canary,omitempty"`
}

// FleetReload is the router's POST /v1/reload reply: one entry per
// primary backend the reload was broadcast to. Failed is the top-level
// signal that at least one backend's reload errored — callers must not
// have to scan Results to notice a split fleet.
type FleetReload struct {
	Results []BackendReload `json:"results"`
	Failed  bool            `json:"failed,omitempty"`
}

// BackendReload is one backend's outcome within a fleet-wide reload or
// promotion.
type BackendReload struct {
	Backend string         `json:"backend"`
	Results []ReloadResult `json:"results,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// ArmStats aggregates detection quality over one arm (primary or
// canary) of a canary evaluation. IA and FA follow the paper's Eq. (12)
// over the truth sets supplied with the evaluated traffic.
type ArmStats struct {
	// Detections is the number of reports scored into the averages.
	Detections int     `json:"detections"`
	Errors     uint64  `json:"errors"`
	IA         float64 `json:"ia"`
	FA         float64 `json:"fa"`
}

// ScenarioDiff compares the two arms over one labelled scenario (one
// X-Eval-Scenario key).
type ScenarioDiff struct {
	Scenario string `json:"scenario"`
	// Truth is the scenario's true outage line set (from X-Eval-Truth).
	Truth   []int    `json:"truth,omitempty"`
	Primary ArmStats `json:"primary"`
	Canary  ArmStats `json:"canary"`
	// DeltaIA and DeltaFA are canary minus primary: a promotable
	// candidate keeps DeltaIA from going negative and DeltaFA from going
	// positive beyond the gate tolerances.
	DeltaIA float64 `json:"delta_ia"`
	DeltaFA float64 `json:"delta_fa"`
}

// DivergenceSummary summarises the per-pair score divergence histogram:
// the largest absolute difference between the primary and canary
// reports' numeric outputs (deviation energy and node scores) across
// every shadow pair.
type DivergenceSummary struct {
	Count uint64  `json:"count"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// CanaryReport is the router's structured canary evaluation — the GET
// /v1/canary/report reply and the evidence a promotion is gated on.
type CanaryReport struct {
	// Candidate is the fingerprint under evaluation ("" when the router
	// was started without one).
	Candidate string `json:"candidate,omitempty"`
	// Requests counts detect requests the router has routed while the
	// canary was configured.
	Requests uint64 `json:"requests"`
	// CanaryServed counts detect requests answered by the canary pool
	// (percent routing).
	CanaryServed uint64 `json:"canary_served"`
	// Pairs counts shadow copies compared against their primary answer.
	Pairs uint64 `json:"pairs"`
	// Identical counts pairs whose response bodies were byte-identical.
	Identical uint64 `json:"identical"`
	// Mismatched counts pairs that differed in any byte.
	Mismatched    uint64            `json:"mismatched"`
	PrimaryErrors uint64            `json:"primary_errors"`
	CanaryErrors  uint64            `json:"canary_errors"`
	Scenarios     []ScenarioDiff    `json:"scenarios,omitempty"`
	Divergence    DivergenceSummary `json:"divergence"`
	// Promotable reports whether every gate passed; Reasons lists the
	// gates that failed when it is false.
	Promotable bool     `json:"promotable"`
	Reasons    []string `json:"reasons,omitempty"`
}

// PromoteRequest is the body of the router's POST /v1/canary/promote:
// reload every primary backend onto the candidate artifact, provided
// the canary report's gates pass.
type PromoteRequest struct {
	// Fingerprint names the candidate artifact in the backends'
	// configured registry; empty defaults to the router's -candidate.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Shards limits the promotion to the named shards; empty promotes
	// every ready shard on each backend.
	Shards []string `json:"shards,omitempty"`
	// Force skips the report gates (operator override).
	Force bool `json:"force,omitempty"`
}

// PromoteResponse carries the gating report alongside the per-backend
// reload outcomes. Failed reports that at least one backend's reload
// errored: the promotion is incomplete and the fleet may be split
// across models (the router also answers 502 when no backend
// succeeded at all).
type PromoteResponse struct {
	Report  CanaryReport    `json:"report"`
	Results []BackendReload `json:"results"`
	Failed  bool            `json:"failed,omitempty"`
}

// Evaluation headers: a caller driving labelled traffic through the
// router tags each request so the canary differ can attribute responses
// to scenarios and score IA/FA against the truth. Backends ignore both.
const (
	// EvalScenarioHeader names the scenario a request belongs to (any
	// stable string, e.g. "outage-line-5").
	EvalScenarioHeader = "X-Eval-Scenario"
	// EvalTruthHeader carries the scenario's true outage line indices as
	// comma-separated integers ("" or absent means unlabelled).
	EvalTruthHeader = "X-Eval-Truth"
)
