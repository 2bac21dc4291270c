package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"pmuoutage"
	"pmuoutage/client"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/router"
	"pmuoutage/internal/service"
)

// shardName is the one shard every backend serves.
const shardName = "grid"

// server is one in-process HTTP listener on a loopback port.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// backend is one detection daemon: a service with one shard booted from
// the model, behind httpserve's handler.
type backend struct {
	svc *service.Service
	srv *server
}

func startBackend(ctx context.Context, model *pmuoutage.Model, spans *spanLog) (*backend, error) {
	svc, err := service.New(ctx, service.Config{Shards: []service.ShardSpec{{Name: shardName, Model: model}}})
	if err != nil {
		return nil, fmt.Errorf("starting service: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !svc.Ready() {
		if time.Now().After(deadline) {
			svc.Close()
			return nil, errors.New("service shard not ready after 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	h := spans.wrap(layerHTTPServe, httpserve.New(svc, 10*time.Second, nil).Routes())
	srv, err := listen(h)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &backend{svc: svc, srv: srv}, nil
}

func (b *backend) close() {
	b.srv.close()
	b.svc.Close()
}

// fleet is a router over backends, all in this process.
type fleet struct {
	backends []*backend
	rt       *router.Router
	rtSrv    *server
	rtHTTP   *http.Transport
}

// startFleet boots n backends from the model and, when routed, a router
// in front of them; it returns once every part is ready to serve.
func startFleet(ctx context.Context, model *pmuoutage.Model, n int, routed bool, spans *spanLog) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		b, err := startBackend(ctx, model, spans)
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, b)
	}
	if !routed {
		return f, nil
	}
	urls := make([]string, n)
	for i, b := range f.backends {
		urls[i] = b.srv.url
	}
	f.rtHTTP = &http.Transport{MaxIdleConnsPerHost: 4}
	rt, err := router.New(ctx, router.Config{Backends: urls, HTTPClient: &http.Client{Transport: f.rtHTTP}})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("starting router: %w", err)
	}
	f.rt = rt
	if f.rtSrv, err = listen(spans.wrap(layerRouter, rt.Routes())); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// url is where clients send requests: the router when there is one.
func (f *fleet) url() string {
	if f.rtSrv != nil {
		return f.rtSrv.url
	}
	return f.backends[0].srv.url
}

func (f *fleet) close() {
	if f.rtSrv != nil {
		f.rtSrv.close()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	if f.rtHTTP != nil {
		f.rtHTTP.CloseIdleConnections()
	}
	for _, b := range f.backends {
		b.close()
	}
}

// stageTotals sums the service's stage histograms over every backend.
func (f *fleet) stageTotals() map[string]stageTotal {
	out := map[string]stageTotal{}
	for _, b := range f.backends {
		for _, snap := range b.svc.Stats() {
			for name, h := range snap.Stages {
				t := out[name]
				t.count += h.Count
				t.sum += h.Sum
				out[name] = t
			}
			t := out["shed"]
			t.count += snap.Shed
			out["shed"] = t
			t = out["samples"]
			t.count += snap.Samples
			out["samples"] = t
		}
	}
	return out
}

// stageTotal is one service stage's observation count and total seconds.
type stageTotal struct {
	count uint64
	sum   float64
}

// env is a booted fleet serving a trained system, with the benchmark's
// client pointed at its front door: the router when there is one.
type env struct {
	s     *system
	f     *fleet
	cli   *client.Client
	tr    *http.Transport
	patch string // identity patch file reloads broadcast, once written
}

// setup trains caseName's model and boots n backends, behind a router
// when routed.
func setup(ctx context.Context, caseName string, n int, routed bool) (*env, error) {
	s, err := trainSystem(ctx, caseName)
	if err != nil {
		return nil, err
	}
	return boot(ctx, s, n, routed, nil)
}

// boot boots n backends serving s's model, behind a router when routed,
// and returns once the front door answers its health check.
func boot(ctx context.Context, s *system, n int, routed bool, spans *spanLog) (*env, error) {
	f, err := startFleet(ctx, s.model, n, routed, spans)
	if err != nil {
		return nil, err
	}
	cli, tr, err := newClient(f.url())
	if err != nil {
		f.close()
		return nil, err
	}
	e := &env{s: s, f: f, cli: cli, tr: tr}
	if err := cli.Health(ctx); err != nil {
		e.close()
		return nil, fmt.Errorf("health check: %w", err)
	}
	return e, nil
}

// close stops the fleet; a nil env, left by a failed re-boot, is a
// no-op.
func (e *env) close() {
	if e == nil {
		return
	}
	e.tr.CloseIdleConnections()
	e.f.close()
}

// newClient builds a benchmark client with at most two connections and
// no retries: a shed or failed request is counted, not hidden.
func newClient(base string) (*client.Client, *http.Transport, error) {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	c, err := client.New(client.Config{BaseURL: base, HTTPClient: &http.Client{Transport: tr}, MaxRetries: -1})
	if err != nil {
		return nil, nil, err
	}
	return c, tr, nil
}
