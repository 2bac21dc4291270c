package harness

import (
	"context"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"pmuoutage"
	"pmuoutage/client"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/registry"
	"pmuoutage/internal/router"
	"pmuoutage/internal/service"
)

// server serves one handler on a loopback listener.
type server struct {
	// URL is the base URL, "http://" plus the bound address.
	URL string

	http *http.Server
	done chan struct{} // closed once Serve returns
}

// listen serves h on addr, or on an ephemeral loopback port when addr
// is empty. A just-freed addr is retried for up to 2 s while the
// kernel releases it.
func listen(addr string, h http.Handler) (*server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	for i := 0; err != nil && i < 40; i++ {
		time.Sleep(50 * time.Millisecond)
		ln, err = net.Listen("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	s := &server{URL: "http://" + ln.Addr().String(), http: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

// Close stops the server abruptly, as a dying process would: the
// listener and every open connection close at once.
func (s *server) Close() error {
	err := s.http.Close()
	<-s.done
	return err
}

// Backend is one in-process outaged: a traced service behind httpserve
// on a loopback listener, keeping every trace.
type Backend struct {
	// URL is the backend's base URL; a restart keeps it.
	URL string
	Svc *service.Service
	// Cli talks to this backend alone.
	Cli *client.Client
	// Reg is the backend's registry client (nil when it trained).
	Reg *registry.Client

	opts   pmuoutage.Options
	fp     string // registry artifact the shard boots from ("" trains opts)
	regURL string
	srv    *server
}

// boot starts the service and its server on addr ("" for an
// ephemeral port).
func (b *Backend) boot(ctx context.Context, addr string) error {
	spec := service.ShardSpec{Name: Shard, Opts: b.opts}
	if b.fp != "" {
		reg, err := registry.NewClient(b.regURL, nil)
		if err != nil {
			return err
		}
		if spec.Model, err = reg.Model(ctx, b.fp); err != nil {
			return err
		}
		b.Reg = reg
	}
	svc, err := service.New(ctx, service.Config{
		Shards: []service.ShardSpec{spec},
		Tracer: obs.NewTracer(obs.TracerConfig{Capacity: 1024, SlowThreshold: 50 * time.Millisecond, SampleEvery: 1}),
		Logger: quiet,
	})
	if err != nil {
		return err
	}
	hs := httpserve.New(svc, 30*time.Second, quiet)
	if b.Reg != nil {
		hs.SetModelSource(b.Reg)
	}
	srv, err := listen(addr, hs.Routes())
	if err != nil {
		svc.Close()
		return err
	}
	b.Svc, b.srv, b.URL = svc, srv, srv.URL
	b.Cli, err = newClient(srv.URL)
	return err
}

// System waits until the shard serves and returns its system.
func (b *Backend) System(ctx context.Context) (*pmuoutage.System, error) {
	for {
		sys, err := b.Svc.System(Shard)
		if err == nil || !httpserve.CodeOf(err).Retryable() {
			return sys, err
		}
		if !sleepCtx(ctx, 20*time.Millisecond) {
			return nil, ctx.Err()
		}
	}
}

// Kill stops the backend abruptly: in-flight requests see transport
// errors, the fail-over case.
func (b *Backend) Kill() error {
	err := b.srv.Close()
	b.Svc.Close()
	return err
}

// Restart boots a killed backend again on its old address, with a
// fresh service and registry client, as a restarted process would.
func (b *Backend) Restart(ctx context.Context) error {
	return b.boot(ctx, strings.TrimPrefix(b.URL, "http://"))
}

// Fleet is an in-process serving fleet on loopback listeners: an
// optional model registry, backends, and an optional router in front.
// The zero value is ready; Close stops everything it started.
type Fleet struct {
	// Cli talks to the router once StartRouter ran.
	Cli *client.Client

	regURL  string // registry base URL once Publish ran
	dir     string // registry directory, scratch space for the rows
	closers []func()
}

// Publish trains opts, publishes the model to a registry served from a
// fresh directory, and returns the trained system.
func (f *Fleet) Publish(ctx context.Context, opts pmuoutage.Options) (*pmuoutage.System, error) {
	model, err := pmuoutage.TrainModelContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	if f.dir, err = os.MkdirTemp("", "pmuoutage-harness-"); err != nil {
		return nil, err
	}
	f.closers = append(f.closers, func() { _ = os.RemoveAll(f.dir) })
	store, err := registry.NewStore(f.dir)
	if err != nil {
		return nil, err
	}
	if _, err := store.Publish(model); err != nil {
		return nil, err
	}
	srv, err := listen("", registry.NewServer(store, quiet).Routes())
	if err != nil {
		return nil, err
	}
	f.closers = append(f.closers, func() { _ = srv.Close() })
	f.regURL = srv.URL
	return pmuoutage.NewSystemFromModel(model)
}

// AddBackend boots one backend whose shard trains opts or, given a
// fingerprint, boots from that artifact in the registry Publish
// filled; opts then only drive retrain reloads.
func (f *Fleet) AddBackend(ctx context.Context, opts pmuoutage.Options, fingerprint string) (*Backend, error) {
	b := &Backend{opts: opts, fp: fingerprint, regURL: f.regURL}
	if err := b.boot(ctx, ""); err != nil {
		return nil, err
	}
	f.closers = append(f.closers, func() { _ = b.Kill() })
	return b, nil
}

// StartRouter fronts the fleet with a router that probes its backends
// every 20 ms.
func (f *Fleet) StartRouter(ctx context.Context, cfg router.Config) error {
	cfg.ProbeEvery, cfg.Logger = 20*time.Millisecond, quiet
	rt, err := router.New(ctx, cfg)
	if err != nil {
		return err
	}
	f.closers = append(f.closers, rt.Close)
	srv, err := listen("", rt.Routes())
	if err != nil {
		return err
	}
	f.closers = append(f.closers, func() { _ = srv.Close() })
	f.Cli, err = newClient(srv.URL)
	return err
}

// Close stops everything the fleet started, newest first.
func (f *Fleet) Close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}
