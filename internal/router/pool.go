package router

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pmuoutage/api"
	"pmuoutage/client"
	"pmuoutage/internal/obs"
)

// Backend is one outaged process as the router tracks it: a raw-mode
// client (no internal retries — the router fails over instead), a
// local in-flight counter bounding concurrent proxied requests, and
// the health/depth state the prober maintains.
type Backend struct {
	url         string
	cli         *client.Client
	maxInFlight int64

	inflight   atomic.Int64
	healthy    atomic.Bool
	ejections  atomic.Uint64
	queueDepth atomic.Int64 // summed shard queue depth, last probe
	lastEject  atomic.Int64 // unix ms of the latest ejection; 0 = never

	// Registry cells the router wires in after the pool is built; nil
	// (a pool used without a router) records nothing.
	ejectProxy *obs.Counter // ejections from data-plane faults
	ejectProbe *obs.Counter // ejections from failed health probes
	readmits   *obs.Counter // recoveries back to healthy

	mu      sync.Mutex
	lastErr string
	shards  []api.ShardStatus

	// Prober-goroutine state: readmission backoff after ejection.
	backoff   time.Duration
	nextProbe time.Time
}

func newBackend(url string, maxInFlight int64, hc *http.Client) (*Backend, error) {
	cli, err := client.New(client.Config{BaseURL: url, MaxRetries: -1, HTTPClient: hc})
	if err != nil {
		return nil, err
	}
	b := &Backend{url: cli.BaseURL(), cli: cli, maxInFlight: maxInFlight}
	// Optimistic admission: the backend counts as healthy until the
	// first probe or proxy attempt says otherwise, so the router can
	// serve the moment it starts.
	b.healthy.Store(true)
	return b, nil
}

// markFault records a data-plane failure and ejects the backend
// immediately — the prober readmits it once /healthz answers again.
func (b *Backend) markFault(err error) {
	b.setErr(err.Error())
	if b.healthy.CompareAndSwap(true, false) {
		b.ejections.Add(1)
		b.ejectProxy.Inc()
		b.lastEject.Store(time.Now().UnixMilli())
	}
}

func (b *Backend) setErr(msg string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastErr = msg
}

// setServing records a successful probe's view of the backend.
func (b *Backend) setServing(shards []api.ShardStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastErr = ""
	b.shards = shards
}

// snapshot reads the probe-maintained state.
func (b *Backend) snapshot() (lastErr string, shards []api.ShardStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastErr, b.shards
}

// Status snapshots the backend for GET /v1/backends.
func (b *Backend) Status() api.BackendStatus {
	lastErr, shards := b.snapshot()
	return api.BackendStatus{
		URL:        b.url,
		Healthy:    b.healthy.Load(),
		Ejections:  b.ejections.Load(),
		InFlight:   int(b.inflight.Load()),
		QueueDepth: int(b.queueDepth.Load()),
		LastError:  lastErr,
		Shards:     shards,
	}
}

// Pool is one set of interchangeable backends (the primary fleet or
// the canary fleet) with health-aware least-loaded selection.
type Pool struct {
	name     string
	backends []*Backend
}

// NewPool builds a pool over the given backend base URLs. maxInFlight
// bounds concurrent proxied requests per backend (≤0: 256). hc
// overrides the HTTP transport (nil: http.DefaultClient).
func NewPool(name string, urls []string, maxInFlight int, hc *http.Client) (*Pool, error) {
	if maxInFlight <= 0 {
		maxInFlight = 256
	}
	p := &Pool{name: name}
	for _, u := range urls {
		b, err := newBackend(u, int64(maxInFlight), hc)
		if err != nil {
			return nil, err
		}
		p.backends = append(p.backends, b)
	}
	return p, nil
}

// Statuses snapshots every backend.
func (p *Pool) Statuses() []api.BackendStatus {
	if p == nil {
		return nil
	}
	out := make([]api.BackendStatus, len(p.backends))
	for i, b := range p.backends {
		out[i] = b.Status()
	}
	return out
}

// acquire picks the least-loaded backend not in tried, reserves an
// in-flight slot on it, and returns a release func. The load key is
// the router's own in-flight count; ties break on the backend's probed
// queue depth, then configuration order. When desperate, ejected
// backends are admissible too — the last-resort pass a caller makes
// once every healthy member has failed it, so an over-eager ejection
// (a slow probe, not a dead process) cannot black-hole traffic. ok is
// false when no admissible backend remains.
func (p *Pool) acquire(tried map[*Backend]bool, desperate bool) (b *Backend, release func(), ok bool) {
	if p == nil {
		return nil, nil, false
	}
	for {
		var best *Backend
		for _, c := range p.backends {
			if tried[c] || (!desperate && !c.healthy.Load()) || c.inflight.Load() >= c.maxInFlight {
				continue
			}
			if best == nil || lessLoaded(c, best) {
				best = c
			}
		}
		if best == nil {
			return nil, nil, false
		}
		// Reserve; the count may have raced past the bound between the
		// scan and the increment, in which case undo and rescan.
		if n := best.inflight.Add(1); n > best.maxInFlight {
			best.inflight.Add(-1)
			tried[best] = true // full this instant; skip it this pass
			continue
		}
		return best, func() { best.inflight.Add(-1) }, true
	}
}

func lessLoaded(a, b *Backend) bool {
	ai, bi := a.inflight.Load(), b.inflight.Load()
	if ai != bi {
		return ai < bi
	}
	return a.queueDepth.Load() < b.queueDepth.Load()
}

// probe refreshes one backend's health and depth state. Healthy
// backends are probed every tick; ejected ones wait out an exponential
// readmission backoff (base→32× base) so a dead process is not
// hammered.
func (p *Pool) probe(ctx context.Context, b *Backend, now time.Time, base time.Duration) {
	if !b.healthy.Load() && now.Before(b.nextProbe) {
		return
	}
	err := b.cli.Health(ctx)
	var shards []api.ShardStatus
	if err == nil {
		shards, err = b.cli.Shards(ctx)
	}
	if err != nil {
		b.setErr(err.Error())
		if b.healthy.CompareAndSwap(true, false) {
			b.ejections.Add(1)
			b.ejectProbe.Inc()
			b.lastEject.Store(now.UnixMilli())
			b.backoff = 0
		}
		if b.backoff < base {
			b.backoff = base
		} else if b.backoff < 32*base {
			b.backoff *= 2
		}
		b.nextProbe = now.Add(b.backoff)
		return
	}
	depth := 0
	for _, st := range shards {
		depth += st.QueueDepth
	}
	b.queueDepth.Store(int64(depth))
	b.setServing(shards)
	b.backoff = 0
	if !b.healthy.Swap(true) {
		b.readmits.Inc()
	}
}
