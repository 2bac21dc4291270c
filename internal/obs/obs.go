// Package obs is the serving stack's stdlib-only telemetry layer:
// a metrics registry (atomic counters, gauges computed at read time,
// fixed-bucket latency histograms with derived p50/p95/p99),
// Prometheus text exposition, trace-ID propagation through context,
// and log/slog helpers.
//
// Design rules, in order:
//
//   - Observational only. Nothing in this package influences detection:
//     recording a metric or span never changes routing, batching, or
//     detector arithmetic, so outputs stay byte-identical with telemetry
//     on or off (pinned by equivalence tests in internal/service).
//   - Allocation-free on the hot path. Counter.Add and
//     Histogram.Observe are single atomic operations; every recording
//     method is nil-safe, so a disabled metric (nil cell) costs one
//     branch and zero allocations.
//   - Registered once, read twice. A cell registered here backs both the
//     JSON stats endpoints and GET /metrics — two views of one set of
//     atomics, never two parallel counters that can drift.
//
// Metric names and label keys must be package-level constants, which
// the gridlint analyzer `metricname` enforces statically. Registration
// panics on a name or label key that is not snake_case and on a series
// registered twice — misregistration is a programming error, caught at
// startup.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic cell. The zero value is
// ready to use; methods on a nil *Counter are no-ops, so an unregistered
// (disabled) counter costs nothing on the hot path.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
//
//gridlint:zeroalloc
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
//
//gridlint:zeroalloc
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count (0 on a nil counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// LatencyBuckets are the fixed upper bounds (seconds) every latency
// histogram uses: 10µs to 10s, roughly 2.5× apart. Fixed buckets keep
// Observe a single indexed atomic increment and make bucket counts
// comparable across shards, stages, and process restarts.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ValueBuckets are the fixed upper bounds for dimensionless value
// histograms (ValueHistogram): 1e-12 — numerical noise between
// byte-identical detectors — up to 100, so genuine model divergence
// lands in resolvable buckets.
var ValueBuckets = []float64{
	1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 100,
}

// Histogram is a fixed-bucket latency histogram. Observe is a bucket
// scan plus three atomic adds — no allocation, no lock. Methods on a nil
// *Histogram are no-ops.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, seconds; +Inf implied
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumNS   atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration. Negative durations count in the first
// bucket (clock adjustments must not corrupt the running sum by more
// than they already did the measurement).
//
//gridlint:zeroalloc
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] { // le is inclusive: s <= bound stays
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(d.Nanoseconds())
}

// ObserveValue records one dimensionless value (e.g. a score
// divergence) into the histogram, bucketed by magnitude. Negative
// values record their absolute value — callers measure distances.
//
//gridlint:zeroalloc
func (h *Histogram) ObserveValue(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = -v
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(v * 1e9))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// SumSeconds returns the sum of all observed durations in seconds.
func (h *Histogram) SumSeconds() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNS.Load()) / 1e9
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket containing the target rank; observations in the
// overflow (+Inf) bucket clamp to the largest finite bound. Under
// concurrent writes the estimate is approximate, like any scrape.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if n > 0 && cum+n >= rank {
			if i == len(h.bounds) { // overflow bucket: no finite upper edge
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*((rank-cum)/n)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Snapshot copies the histogram into plain values; nil histograms
// return an empty snapshot. Bounds aliases the histogram's bound slice
// — callers must treat it as read-only.
func (h *Histogram) Snapshot() *HistSnapshot {
	if h == nil {
		return &HistSnapshot{}
	}
	return h.snapshot()
}

// snapshot copies the histogram into plain values.
func (h *Histogram) snapshot() *HistSnapshot {
	s := &HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.SumSeconds(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.P50, s.P95, s.P99 = h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	return s
}

// Kind classifies a registered metric.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String renders the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labelled time series inside a family.
type series struct {
	labels  []string // alternating key, value
	counter *Counter
	gaugeFn func() float64
	hist    *Histogram
}

// family groups every series sharing a metric name (one HELP/TYPE block
// in the exposition).
type family struct {
	name, help string
	kind       Kind
	series     []*series
}

// Registry holds registered metrics and renders them in Prometheus text
// format. It implements http.Handler, so it can be mounted directly at
// GET /metrics. All methods are safe for concurrent use; registration
// methods on a nil *Registry return nil cells, which record nothing —
// the disabled-telemetry path.
type Registry struct {
	mu       sync.Mutex
	families []*family // first-registration order, for stable output
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// Counter registers a counter series under name with the given label
// key/value pairs and returns its cell. Registering the same name with
// new label values extends the family; an exact duplicate panics.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, KindCounter, &series{labels: labels, counter: c})
	return c
}

// AttachCounter registers an existing counter cell (one owned by another
// subsystem, e.g. a tracer's kept and dropped counts) so the registry and
// the owner read the same atomics.
func (r *Registry) AttachCounter(name, help string, c *Counter, labels ...string) {
	if r == nil {
		return
	}
	r.register(name, help, KindCounter, &series{labels: labels, counter: c})
}

// GaugeFunc registers a gauge whose value is computed at read time —
// the bridge for values another subsystem already maintains (queue
// depths, pending-map sizes). fn must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.register(name, help, KindGauge, &series{labels: labels, gaugeFn: fn})
}

// Histogram registers a latency histogram series (LatencyBuckets bounds)
// and returns its cell.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(LatencyBuckets)
	r.register(name, help, KindHistogram, &series{labels: labels, hist: h})
	return h
}

// ValueHistogram registers a dimensionless value histogram series
// (ValueBuckets bounds — decade-ish spacing from 1e-12 to 100, sized
// for score divergences) and returns its cell. Record through
// Histogram.ObserveValue.
func (r *Registry) ValueHistogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(ValueBuckets)
	r.register(name, help, KindHistogram, &series{labels: labels, hist: h})
	return h
}

func (r *Registry) register(name, help string, kind Kind, s *series) {
	if !snakeCase(name) {
		panic(fmt.Sprintf("obs: metric name %q is not snake_case", name))
	}
	if len(s.labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q has odd label list %q (want key/value pairs)", name, s.labels))
	}
	for i := 0; i < len(s.labels); i += 2 {
		if !snakeCase(s.labels[i]) {
			panic(fmt.Sprintf("obs: metric %q label key %q is not snake_case", name, s.labels[i]))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	for _, prev := range f.series {
		if labelsEqual(prev.labels, s.labels) {
			panic(fmt.Sprintf("obs: metric %q%s registered twice", name, labelString(s.labels)))
		}
	}
	f.series = append(f.series, s)
}

// snakeCase reports whether s is a valid snake_case metric or label
// name: lowercase letter first, then lowercase letters, digits, and
// underscores.
func snakeCase(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

func labelsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// HistSnapshot is a point-in-time copy of one histogram.
type HistSnapshot struct {
	Bounds []float64 // finite upper bounds, seconds
	Counts []uint64  // per-bucket counts; Counts[len(Bounds)] is +Inf
	Count  uint64
	Sum    float64 // seconds
	P50    float64
	P95    float64
	P99    float64
}

// find returns the series with the exact name and label pairs, or nil.
func (r *Registry) find(name string, labels []string) *series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		return nil
	}
	for _, s := range f.series {
		if labelsEqual(s.labels, labels) {
			return s
		}
	}
	return nil
}

// CounterValue reads one counter series by exact name and label pairs
// (0 if absent) — the lookup the /v1/stats-vs-/metrics parity tests
// use.
func (r *Registry) CounterValue(name string, labels ...string) uint64 {
	if s := r.find(name, labels); s != nil {
		return s.counter.Load()
	}
	return 0
}

// GaugeValue reads one gauge series by exact name and label pairs.
func (r *Registry) GaugeValue(name string, labels ...string) float64 {
	if s := r.find(name, labels); s != nil && s.gaugeFn != nil {
		return s.gaugeFn()
	}
	return 0
}

// HistogramSnapshot reads one histogram series by exact name and label
// pairs; ok reports whether it exists.
func (r *Registry) HistogramSnapshot(name string, labels ...string) (*HistSnapshot, bool) {
	if s := r.find(name, labels); s != nil && s.hist != nil {
		return s.hist.snapshot(), true
	}
	return nil, false
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): HELP and TYPE per family, then one
// line per series; histograms expand to cumulative _bucket lines plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, f := range r.families {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(s.labels), formatFloat(float64(s.counter.Load())))
			case s.gaugeFn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(s.labels), formatFloat(s.gaugeFn()))
			case s.hist != nil:
				writeHistogram(&b, f.name, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name string, s *series) {
	var cum uint64
	for i := range s.hist.buckets {
		cum += s.hist.buckets[i].Load()
		le := "+Inf"
		if i < len(s.hist.bounds) {
			le = formatFloat(s.hist.bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelString(append(append([]string{}, s.labels...), "le", le)), cum)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelString(s.labels), formatFloat(s.hist.SumSeconds()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelString(s.labels), s.hist.count.Load())
}

// ServeHTTP renders the registry — mount it at GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// The status line is committed; a write error only means the scraper
	// went away.
	_ = r.WritePrometheus(w)
}

// labelString renders {k="v",...} ("" when no labels).
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }
func escapeHelp(v string) string  { return helpEscaper.Replace(v) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
