package service

import (
	"sync"
	"sync/atomic"

	"pmuoutage/api"
	"pmuoutage/internal/obs"
)

// Metric and label names the service registers on its obs.Registry.
// Package-level snake_case consts with exactly one registration call
// site each — the gridlint `metricname` analyzer enforces this shape.
const (
	metricRequests     = "pmu_requests_total"
	metricIngests      = "pmu_ingests_total"
	metricSamples      = "pmu_samples_total"
	metricBatches      = "pmu_batches_total"
	metricShed         = "pmu_shed_total"
	metricUnavailable  = "pmu_unavailable_total"
	metricRestarts     = "pmu_restarts_total"
	metricReloads      = "pmu_reloads_total"
	metricQueueDepth   = "pmu_queue_depth"
	metricMaxBatch     = "pmu_max_batch"
	metricStageSeconds = "pmu_stage_seconds"
	metricIngestFrames = "pmu_ingest_frames_total"

	labelShard = "shard"
	labelStage = "stage"
	labelMode  = "mode"
)

// Stage identifies one instrumented span of a request's path through a
// shard; each stage gets its own latency histogram per shard
// (pmu_stage_seconds{shard,stage}).
type Stage int

const (
	// StageQueue is the per-request wait between admission and the
	// batcher popping it.
	StageQueue Stage = iota
	// StageCoalesce is the per-batch time spent draining companion
	// requests behind the first one.
	StageCoalesce
	// StageDetect is the per-batch detector call.
	StageDetect
	// StageEncode is the per-response JSON encoding, recorded by the
	// HTTP layer (cmd/outaged).
	StageEncode
	numStages
)

// Stage label values, shared by the pmu_stage_seconds histograms and
// the span stage labels (gridlint's metricname analyzer pins span
// stages to package-level consts, exactly like metric names).
const (
	stageNameQueue    = "queue"
	stageNameCoalesce = "coalesce"
	stageNameDetect   = "detect"
	stageNameEncode   = "encode"
)

// String renders the stage label value.
func (st Stage) String() string {
	switch st {
	case StageQueue:
		return stageNameQueue
	case StageCoalesce:
		return stageNameCoalesce
	case StageDetect:
		return stageNameDetect
	default:
		return stageNameEncode
	}
}

// IngestMode identifies which transport carried a streaming sample into
// the service; each mode gets its own admission counter per shard
// (pmu_ingest_frames_total{shard,mode}).
type IngestMode int

const (
	// IngestJSON: the sample arrived as a JSON body on /v1/ingest.
	IngestJSON IngestMode = iota
	// IngestBinary: the sample arrived as a binary wire frame on
	// /v1/ingest.
	IngestBinary
	numModes
)

// String renders the mode label value.
func (m IngestMode) String() string {
	if m == IngestJSON {
		return "json"
	}
	return "binary"
}

// Stats owns the service's metrics: one cell set per shard, every cell
// registered on a single obs.Registry, so the JSON /v1/stats snapshot
// and the Prometheus /metrics exposition are two views of the same
// atomics and can never drift. Counters are observational only — they
// never influence routing or batching, so the detector output stays
// bit-identical to direct library calls.
type Stats struct {
	reg *obs.Registry

	mu     sync.Mutex
	shards map[string]*ShardCounters
}

func newStats(reg *obs.Registry) *Stats {
	return &Stats{reg: reg, shards: map[string]*ShardCounters{}}
}

// shard returns (creating and registering on first use) the named
// shard's counter cells.
func (s *Stats) shard(name string) *ShardCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.shards[name]
	if c == nil {
		c = &ShardCounters{
			Requests:    s.reg.Counter(metricRequests, "detect requests routed to the shard", labelShard, name),
			Ingests:     s.reg.Counter(metricIngests, "streaming samples routed to the shard", labelShard, name),
			Samples:     s.reg.Counter(metricSamples, "samples run through the detector", labelShard, name),
			Batches:     s.reg.Counter(metricBatches, "coalesced detector calls", labelShard, name),
			Shed:        s.reg.Counter(metricShed, "requests rejected by load-shedding", labelShard, name),
			Unavailable: s.reg.Counter(metricUnavailable, "requests refused while the shard was not ready", labelShard, name),
			Restarts:    s.reg.Counter(metricRestarts, "supervisor rebuilds (failures and kills)", labelShard, name),
			Reloads:     s.reg.Counter(metricReloads, "successful hot model swaps", labelShard, name),
		}
		for st := Stage(0); st < numStages; st++ {
			c.stage[st] = s.reg.Histogram(metricStageSeconds, "per-stage request latency", labelShard, name, labelStage, st.String())
		}
		for m := IngestMode(0); m < numModes; m++ {
			c.frames[m] = s.reg.Counter(metricIngestFrames, "samples admitted per ingest transport", labelShard, name, labelMode, m.String())
		}
		s.reg.GaugeFunc(metricMaxBatch, "largest coalesced batch seen", func() float64 { return float64(c.maxBatch.Load()) }, labelShard, name)
		s.shards[name] = c
	}
	return c
}

// snapshot copies every cell into plain values.
func (s *Stats) snapshot() map[string]api.ShardSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]api.ShardSnapshot, len(s.shards))
	for name, c := range s.shards {
		out[name] = c.snapshot()
	}
	return out
}

// ShardCounters are one shard's live cells, registered on the service
// registry. All fields are safe for concurrent update.
type ShardCounters struct {
	Requests    *obs.Counter // detect requests routed to the shard
	Ingests     *obs.Counter // streaming samples routed to the shard
	Samples     *obs.Counter // samples actually run through the detector
	Batches     *obs.Counter // coalesced detector calls
	Shed        *obs.Counter // requests rejected by load-shedding
	Unavailable *obs.Counter // requests refused while not ready
	Restarts    *obs.Counter // supervisor rebuilds (failures and kills)
	Reloads     *obs.Counter // successful hot model swaps

	stage    [numStages]*obs.Histogram
	frames   [numModes]*obs.Counter // admitted samples per ingest transport
	maxBatch atomic.Int64           // largest coalesced batch seen
}

// Frames returns the admission counter of one ingest transport — the
// HTTP layer counts its json and binary admissions through this.
func (c *ShardCounters) Frames(m IngestMode) *obs.Counter {
	if c == nil || m < 0 || m >= numModes {
		return nil
	}
	return c.frames[m]
}

// StageSeconds returns the latency histogram of one stage — the HTTP
// layer records the encode stage through this.
func (c *ShardCounters) StageSeconds(st Stage) *obs.Histogram {
	if c == nil || st < 0 || st >= numStages {
		return nil
	}
	return c.stage[st]
}

// snapshot is a point-in-time copy of the shard's counters, the GET
// /v1/stats wire value. Latency fields derive from the detect-stage
// histogram — the same cells /metrics renders.
func (c *ShardCounters) snapshot() api.ShardSnapshot {
	snap := api.ShardSnapshot{
		Requests:     c.Requests.Load(),
		Ingests:      c.Ingests.Load(),
		Samples:      c.Samples.Load(),
		Batches:      c.Batches.Load(),
		Shed:         c.Shed.Load(),
		Unavailable:  c.Unavailable.Load(),
		Restarts:     c.Restarts.Load(),
		Reloads:      c.Reloads.Load(),
		FramesJSON:   c.frames[IngestJSON].Load(),
		FramesBinary: c.frames[IngestBinary].Load(),
		MaxBatch:     int(c.maxBatch.Load()),
	}
	det := c.stage[StageDetect]
	if n := det.Count(); n > 0 {
		snap.AvgBatch = float64(snap.Samples) / float64(n)
		snap.AvgLatencyMS = det.SumSeconds() / float64(n) * 1e3
		snap.P50LatencyMS = det.Quantile(0.50) * 1e3
		snap.P95LatencyMS = det.Quantile(0.95) * 1e3
		snap.P99LatencyMS = det.Quantile(0.99) * 1e3
	}
	// Full per-stage histograms ride along so the router's fleet
	// aggregator can merge them across backends (api.Hist.Merge needs
	// matching bounds, which every shard shares via LatencyBuckets).
	snap.Stages = make(map[string]api.Hist, int(numStages))
	for st := Stage(0); st < numStages; st++ {
		hs := c.stage[st].Snapshot()
		snap.Stages[st.String()] = api.Hist{
			Bounds: hs.Bounds,
			Counts: hs.Counts,
			Count:  hs.Count,
			Sum:    hs.Sum,
		}
	}
	return snap
}
