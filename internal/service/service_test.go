package service

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"pmuoutage"
)

// quickOpts is a fast DC training configuration; seed varies per shard
// so the two shards are genuinely different systems.
func quickOpts(seed int64) pmuoutage.Options {
	return pmuoutage.Options{Case: "ieee14", TrainSteps: 12, Seed: seed, UseDC: true, Workers: 2}
}

func twoShardConfig() Config {
	return Config{
		Shards: []ShardSpec{
			{Name: "east", Opts: quickOpts(3)},
			{Name: "west", Opts: quickOpts(5)},
		},
		RestartBackoff:    time.Millisecond,
		MaxRestartBackoff: 10 * time.Millisecond,
	}
}

// waitState polls until the named shard reaches the state or the
// deadline passes.
func waitState(t *testing.T, svc *Service, name, state string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		for _, st := range svc.Shards() {
			if st.Name == name && st.State == state {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("shard %s never reached %s: %+v", name, state, svc.Shards())
}

// testSamples simulates a few outage samples on a reference system.
func testSamples(t *testing.T, sys *pmuoutage.System, n int) []pmuoutage.Sample {
	t.Helper()
	e := sys.ValidLines()[0]
	samples, err := sys.SimulateOutage([]int{e}, n)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestDetectBatchMatchesDirect pins the core contract: responses routed
// through the service — including ones coalesced with concurrent
// traffic — are identical to System.DetectBatch on the same samples.
func TestDetectBatchMatchesDirect(t *testing.T) {
	svc, err := New(context.Background(), twoShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitState(t, svc, "east", "ready")
	waitState(t, svc, "west", "ready")

	// Reference systems trained directly with the same options.
	east, err := pmuoutage.NewSystem(quickOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	west, err := pmuoutage.NewSystem(quickOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	samples := testSamples(t, east, 4)
	wantEast, err := east.DetectBatch(samples)
	if err != nil {
		t.Fatal(err)
	}
	wantWest, err := west.DetectBatch(samples)
	if err != nil {
		t.Fatal(err)
	}

	// Hammer both shards concurrently with single-sample and
	// multi-sample requests so coalescing actually happens.
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for round := 0; round < 8; round++ {
		for name, want := range map[string][]*pmuoutage.Report{"east": wantEast, "west": wantWest} {
			wg.Add(2)
			go func() {
				defer wg.Done()
				got, err := svc.DetectBatch(context.Background(), name, samples)
				if err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errc <- errors.New(name + ": batch response differs from direct DetectBatch")
				}
			}()
			go func() {
				defer wg.Done()
				got, err := svc.DetectBatch(context.Background(), name, samples[:1])
				if err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(got, want[:1]) {
					errc <- errors.New(name + ": single-sample response differs from direct Detect")
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	stats := svc.Stats()
	if stats["east"].Requests == 0 || stats["east"].Samples == 0 {
		t.Fatalf("stats did not record east traffic: %+v", stats["east"])
	}
}

func TestUnknownShardAndEmptyBatch(t *testing.T) {
	svc, err := New(context.Background(), twoShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.DetectBatch(context.Background(), "nope", nil); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("unknown shard error = %v", err)
	}
	got, err := svc.DetectBatch(context.Background(), "east", nil)
	if err != nil || got != nil {
		t.Fatalf("empty batch = %v, %v", got, err)
	}
}

// TestBadSampleIsolation: a malformed sample — one of the wrong size,
// or one whose deviation energy is not finite — fails its own request
// with ErrBadSample while a concurrently coalesced healthy request
// still succeeds.
func TestBadSampleIsolation(t *testing.T) {
	svc, err := New(context.Background(), twoShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitState(t, svc, "east", "ready")
	sys, err := svc.System("east")
	if err != nil {
		t.Fatal(err)
	}
	good := testSamples(t, sys, 1)
	nonFinite := pmuoutage.Sample{Vm: good[0].Vm, Va: slices.Clone(good[0].Va)}
	nonFinite.Va[0] = math.NaN()
	bads := [][]pmuoutage.Sample{{{Vm: []float64{1}, Va: []float64{0}}}, {nonFinite}}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			bad := bads[i%len(bads)]
			if _, err := svc.DetectBatch(context.Background(), "east", bad); !errors.Is(err, pmuoutage.ErrBadSample) {
				t.Errorf("bad sample error = %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			got, err := svc.DetectBatch(context.Background(), "east", good)
			if err != nil || len(got) != 1 {
				t.Errorf("healthy request failed next to bad one: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestSystemReadyMeansSystem: System answers a system or an error,
// never neither. It read the shard's system and its state in two
// critical sections, so a shard that became ready between them yielded
// a nil system with a nil error; callers polling a booting service hit
// that window now and then.
func TestSystemReadyMeansSystem(t *testing.T) {
	m, err := pmuoutage.TrainModel(quickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	for boot := 0; boot < 200; boot++ {
		svc, err := New(context.Background(), Config{Shards: []ShardSpec{{Name: "east", Model: m}}})
		if err != nil {
			t.Fatal(err)
		}
		for {
			sys, err := svc.System("east")
			if err != nil {
				continue
			}
			if sys == nil {
				svc.Close()
				t.Fatalf("boot %d: System returned neither a system nor an error", boot)
			}
			break
		}
		svc.Close()
	}
}

// TestKillAndRestart covers the degradation story: a killed shard
// answers with a retryable error while the other shard keeps serving,
// and the supervisor rebuilds it.
func TestKillAndRestart(t *testing.T) {
	svc, err := New(context.Background(), twoShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitState(t, svc, "east", "ready")
	waitState(t, svc, "west", "ready")
	sys, err := svc.System("east")
	if err != nil {
		t.Fatal(err)
	}
	samples := testSamples(t, sys, 1)

	if err := svc.Kill("west"); err != nil {
		t.Fatal(err)
	}
	// The dead shard fails fast with ErrUnavailable (it may already be
	// retraining under the 1ms test backoff, which is unavailable too).
	if _, err := svc.DetectBatch(context.Background(), "west", samples); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("killed shard error = %v, want ErrUnavailable", err)
	}
	// The surviving shard keeps answering.
	if _, err := svc.DetectBatch(context.Background(), "east", samples); err != nil {
		t.Fatalf("surviving shard failed: %v", err)
	}
	// The supervisor rebuilds the dead shard.
	waitState(t, svc, "west", "ready")
	if _, err := svc.DetectBatch(context.Background(), "west", samples); err != nil {
		t.Fatalf("restarted shard failed: %v", err)
	}
	if svc.Stats()["west"].Restarts == 0 {
		t.Fatal("restart not counted")
	}
}

// TestTrainingFailureBackoff: a shard whose options cannot train stays
// failed/retraining with a growing restart count, without taking the
// healthy shard down.
func TestTrainingFailureBackoff(t *testing.T) {
	cfg := Config{
		Shards: []ShardSpec{
			{Name: "good", Opts: quickOpts(3)},
			{Name: "bad", Opts: pmuoutage.Options{Case: "bogus"}},
		},
		RestartBackoff:    time.Millisecond,
		MaxRestartBackoff: 4 * time.Millisecond,
	}
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitState(t, svc, "good", "ready")
	deadline := time.Now().Add(60 * time.Second)
	for svc.Stats()["bad"].Restarts < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if svc.Stats()["bad"].Restarts < 2 {
		t.Fatalf("bad shard restarts = %d, want >= 2", svc.Stats()["bad"].Restarts)
	}
	if _, err := svc.DetectBatch(context.Background(), "bad", testSamples(t, mustSystem(t, svc, "good"), 1)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("untrainable shard error = %v", err)
	}
	if !svc.Ready() {
		t.Fatal("service with one healthy shard must report ready")
	}
}

func mustSystem(t *testing.T, svc *Service, name string) *pmuoutage.System {
	t.Helper()
	sys, err := svc.System(name)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestQueueShedding: with the batcher deterministically parked inside a
// batch, a request beyond QueueDepth is rejected with ErrOverloaded.
func TestQueueShedding(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := Config{
		Shards:         []ShardSpec{{Name: "east", Opts: quickOpts(3)}},
		QueueDepth:     1,
		RestartBackoff: time.Millisecond,
		batchHook: func(string, int) {
			once.Do(func() { close(entered) })
			<-release
		},
	}
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	defer close(release)
	waitState(t, svc, "east", "ready")
	samples := testSamples(t, mustSystem(t, svc, "east"), 1)

	first := make(chan error, 1)
	go func() {
		_, err := svc.DetectBatch(context.Background(), "east", samples)
		first <- err
	}()
	<-entered // the one admitted request is now mid-batch, depth still 1

	_, err = svc.DetectBatch(context.Background(), "east", samples)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-bound request error = %v, want ErrOverloaded", err)
	}
	if svc.Stats()["east"].Shed != 1 {
		t.Fatalf("shed count = %d, want 1", svc.Stats()["east"].Shed)
	}

	release <- struct{}{} // let the parked batch finish
	if err := <-first; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
}

// TestDeadlines: an expired request never waits on the queue, and a
// request that expires while queued behind a stuck batch is answered
// with its context error rather than detector output.
func TestDeadlines(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := Config{
		Shards:         []ShardSpec{{Name: "east", Opts: quickOpts(3)}},
		RestartBackoff: time.Millisecond,
		batchHook: func(string, int) {
			once.Do(func() {
				close(entered)
				<-release
			})
		},
	}
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	defer close(release)
	waitState(t, svc, "east", "ready")
	samples := testSamples(t, mustSystem(t, svc, "east"), 1)

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := svc.DetectBatch(expired, "east", samples); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request error = %v", err)
	}

	// Park the batcher, then queue a request with a short deadline
	// behind it: the caller gets the deadline error, and the batcher's
	// pre-run expiry check answers the queued request without detector
	// work.
	stuck := make(chan error, 1)
	go func() {
		_, err := svc.DetectBatch(context.Background(), "east", samples)
		stuck <- err
	}()
	<-entered
	short, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if _, err := svc.DetectBatch(short, "east", samples); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request past deadline = %v", err)
	}
	release <- struct{}{}
	if err := <-stuck; err != nil {
		t.Fatalf("parked request failed: %v", err)
	}
}

// TestKillDrainsQueue: killing a shard while its batch loop is parked
// inside a batch lets that batch finish with its reports, answers the
// request queued behind it with a retryable error instead of leaving it
// waiting, and settles the queue depth.
func TestKillDrainsQueue(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once, releaseOnce sync.Once
	cfg := Config{
		Shards:         []ShardSpec{{Name: "east", Opts: quickOpts(3)}},
		RestartBackoff: time.Minute, // no rebuild while the test looks
		batchHook: func(string, int) {
			once.Do(func() {
				close(entered)
				<-release
			})
		},
	}
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	defer unpark()
	waitState(t, svc, "east", "ready")
	sys := mustSystem(t, svc, "east")
	samples := testSamples(t, sys, 2)
	want, err := sys.DetectBatch(samples[:1])
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		reports []*pmuoutage.Report
		err     error
	}
	parked := make(chan result, 1)
	go func() {
		r, err := svc.DetectBatch(context.Background(), "east", samples[:1])
		parked <- result{r, err}
	}()
	<-entered
	queued := make(chan error, 1)
	go func() {
		_, err := svc.DetectBatch(context.Background(), "east", samples[1:])
		queued <- err
	}()
	sh := svc.peek("east")
	deadline := time.Now().Add(10 * time.Second)
	for len(sh.reqs) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	if err := svc.Kill("east"); err != nil {
		t.Fatal(err)
	}
	unpark()
	got := <-parked
	if got.err != nil {
		t.Fatalf("parked request failed: %v", got.err)
	}
	if !reflect.DeepEqual(got.reports, want) {
		t.Fatal("parked request's reports differ from direct DetectBatch")
	}
	select {
	case err := <-queued:
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("queued request error = %v, want ErrUnavailable", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request still waiting after the kill")
	}
	if d := svc.Shards()[0].QueueDepth; d != 0 {
		t.Fatalf("queue depth = %d after every request was answered, want 0", d)
	}
}

// TestIngestConfirmsOutage drives the streaming monitor through Ingest:
// persistent outage samples confirm an event, and an unready shard
// refuses ingestion.
func TestIngestConfirmsOutage(t *testing.T) {
	cfg := twoShardConfig()
	cfg.Confirm = 2
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitState(t, svc, "east", "ready")
	sys := mustSystem(t, svc, "east")
	e := sys.ValidLines()[0]
	outage, err := sys.SimulateOutage([]int{e}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var event *pmuoutage.Event
	for _, smp := range outage {
		ev, err := svc.Ingest(context.Background(), "east", smp)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			event = ev
			break
		}
	}
	if event == nil {
		t.Fatal("persistent outage not confirmed through service ingest")
	}
	found := false
	for _, l := range event.Lines {
		if l.Index == e {
			found = true
		}
	}
	if !found {
		t.Fatalf("event lines %v missing true line %d", event.Lines, e)
	}
	if svc.Stats()["east"].Ingests == 0 {
		t.Fatal("ingest not counted")
	}

	if err := svc.Kill("east"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest(context.Background(), "east", outage[0]); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ingest on killed shard = %v, want ErrUnavailable", err)
	}
}

func TestCloseRejectsAndConfigValidation(t *testing.T) {
	svc, err := New(context.Background(), twoShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := svc.DetectBatch(context.Background(), "east", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed service error = %v", err)
	}
	svc.Close() // idempotent

	for _, cfg := range []Config{
		{},
		{Shards: []ShardSpec{{Name: ""}}},
		{Shards: []ShardSpec{{Name: "a"}, {Name: "a"}}},
	} {
		if _, err := New(context.Background(), cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("config %+v error = %v", cfg, err)
		}
	}
}

// TestContextCancelClosesService: cancelling the context passed to New
// behaves like Close.
func TestContextCancelClosesService(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	svc, err := New(ctx, twoShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, "east", "ready")
	cancel()
	waitState(t, svc, "east", "stopped")
	if _, err := svc.DetectBatch(context.Background(), "east", []pmuoutage.Sample{{}}); err == nil {
		t.Fatal("cancelled service must refuse requests")
	}
	svc.Close()
}
