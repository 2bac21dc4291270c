// Package metricname is golden-test input for the metricname analyzer.
// Registry here mimics the internal/obs surface: the analyzer keys on
// the receiver type name and method set, not the package path.
package metricname

type Counter struct{}

type Registry struct{}

func (r *Registry) Counter(name, help string, labels ...string) *Counter             { return nil }
func (r *Registry) Gauge(name, help string, labels ...string) *Counter               { return nil }
func (r *Registry) Histogram(name, help string, labels ...string) *Counter           { return nil }
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {}
func (r *Registry) AttachCounter(name, help string, c *Counter, labels ...string)    {}

const (
	goodCounter = "pmu_good_total"
	goodGauge   = "pmu_queue_depth"
	goodHist    = "pmu_stage_seconds"
	goodFunc    = "pmu_largest_batch"
	spreadName  = "pmu_spread_total"
	labelShard  = "shard"
)

func register(r *Registry, c *Counter, labels []string) {
	r.Counter(goodCounter, "fine: const snake_case name, const label key", labelShard, "east")
	r.Histogram(goodHist, "fine: labels fanned out per shard", labelShard, "west")
	r.GaugeFunc(goodFunc, "fine: callback is not mistaken for a label", func() float64 { return 0 }, labelShard, "east")
	r.AttachCounter(spreadName, "fine: spread labels are left to runtime", c, labels...)

	r.Counter("pmu_literal_total", "names must be consts") // want `metric name must be a package-level named constant, not a string literal`

	name := "pmu_var_total"
	r.Counter(name, "variables hide the catalog") // want `metric name must be a package-level named constant, not a variable`

	const local = "pmu_local_total"
	r.Counter(local, "local consts are invisible to grep at the top of the file") // want `metric name constant local must be declared at package level`

	r.Gauge(goodGauge, "label keys must be consts too", "shard", "east") // want `label key must be a package-level named constant, not a string literal`
}

// Tracer mimics the internal/obs span surface: stage names feed the
// per-stage SLO rows, so StartSpan/RecordSpan stage arguments get the
// same const rule.
type Tracer struct{}

func (t *Tracer) StartSpan(ctx any, stage string) (any, any)       { return ctx, nil }
func (t *Tracer) RecordSpan(ctx any, stage string, start, end int) {}

const stageGood = "detect"

func spans(tr *Tracer, ctx any) {
	_, _ = tr.StartSpan(ctx, stageGood)
	tr.RecordSpan(ctx, stageGood, 0, 0) // fine: stages may repeat across call sites
	tr.RecordSpan(ctx, stageGood, 0, 0)

	_, _ = tr.StartSpan(ctx, "queue") // want `span stage must be a package-level named constant, not a string literal`
}

// notATracer proves the stage check keys on the receiver type too.
type notATracer struct{}

func (notATracer) StartSpan(ctx any, stage string) {}

func unrelatedSpan(n notATracer, ctx any) {
	n.StartSpan(ctx, "Whatever Goes")
}

// notARegistry proves the analyzer keys on the receiver type: same
// method names elsewhere are ignored.
type notARegistry struct{}

func (notARegistry) Counter(name, help string, labels ...string) {}

func unrelated(n notARegistry) {
	n.Counter("Whatever Goes", "not a Registry, not our business")
}
