package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"pmuoutage"
)

// TestReloadUnderTraffic is the hot-swap acceptance test: while many
// goroutines hammer a shard, a reload with the same training options
// swaps in a freshly trained (identical) model. Every request — before,
// during, and after the swap — must return exactly the reference
// reports; no request may be dropped or see a torn model. Run with
// -race this also proves the swap itself is data-race free.
func TestReloadUnderTraffic(t *testing.T) {
	svc, err := New(context.Background(), Config{
		Shards:            []ShardSpec{{Name: "east", Opts: quickOpts(3)}},
		RestartBackoff:    time.Millisecond,
		MaxRestartBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitState(t, svc, "east", "ready")

	ref, err := pmuoutage.NewSystem(quickOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	samples := testSamples(t, ref, 3)
	want, err := ref.DetectBatch(samples)
	if err != nil {
		t.Fatal(err)
	}
	genBefore := svc.Shards()[0].Generation

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := svc.DetectBatch(ctx, "east", samples)
				if err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errc <- errors.New("reports diverged from reference during reload")
					return
				}
			}
		}()
	}
	// Retrain-reload twice while traffic flows. Same options => the new
	// model is byte-identical, so any divergence above is a swap bug.
	for i := 0; i < 2; i++ {
		if err := svc.Reload(ctx, "east", nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	st := svc.Shards()[0]
	if st.Generation != genBefore+2 {
		t.Fatalf("generation = %d after 2 reloads of gen %d", st.Generation, genBefore)
	}
	if st.Model != ref.Model().Fingerprint() {
		t.Fatalf("served model fingerprint %s differs from reference %s", st.Model, ref.Model().Fingerprint())
	}
	if got := svc.Stats()["east"].Reloads; got != 2 {
		t.Fatalf("Reloads counter = %d, want 2", got)
	}
}

// TestReloadSwapsBehavior: a reload onto a model with genuinely
// different learned state (different seed) changes the served results
// to exactly that model's, and pins the artifact for supervisor
// rebuilds after a kill.
func TestReloadSwapsBehavior(t *testing.T) {
	svc, err := New(context.Background(), Config{
		Shards:            []ShardSpec{{Name: "east", Opts: quickOpts(3)}},
		RestartBackoff:    time.Millisecond,
		MaxRestartBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitState(t, svc, "east", "ready")

	m, err := pmuoutage.TrainModel(quickOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pmuoutage.NewSystemFromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Reload(context.Background(), "east", m); err != nil {
		t.Fatal(err)
	}
	samples := testSamples(t, ref, 2)
	want, err := ref.DetectBatch(samples)
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.DetectBatch(context.Background(), "east", samples)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("served reports differ from the reloaded model's")
	}

	// A kill + rebuild must come back serving the reloaded artifact,
	// not retrain from the original spec.
	if err := svc.Kill("east"); err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, "east", "ready")
	st := svc.Shards()[0]
	if st.Model != m.Fingerprint() {
		t.Fatalf("rebuilt shard serves %s, want pinned reload artifact %s", st.Model, m.Fingerprint())
	}
}

// TestReloadValidation: reloads of unknown shards, not-ready shards,
// and grid-incompatible models are all refused with typed errors.
func TestReloadValidation(t *testing.T) {
	svc, err := New(context.Background(), Config{
		Shards:            []ShardSpec{{Name: "east", Opts: quickOpts(3)}},
		RestartBackoff:    time.Minute,
		MaxRestartBackoff: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitState(t, svc, "east", "ready")

	if err := svc.Reload(context.Background(), "nope", nil); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("unknown shard: got %v", err)
	}
	bigger, err := pmuoutage.TrainModel(pmuoutage.Options{Case: "ieee30", TrainSteps: 12, Seed: 3, UseDC: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Reload(context.Background(), "east", bigger); !errors.Is(err, ErrConfig) {
		t.Fatalf("grid-incompatible model: got %v", err)
	}
	if err := svc.Kill("east"); err != nil {
		t.Fatal(err)
	}
	m, err := pmuoutage.TrainModel(quickOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Reload(context.Background(), "east", m); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("reload of killed shard: got %v", err)
	}
}

// TestBootFromModel: a shard specced with a pre-trained artifact serves
// it without retraining and reports its fingerprint immediately.
func TestBootFromModel(t *testing.T) {
	m, err := pmuoutage.TrainModel(quickOpts(11))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(context.Background(), Config{
		Shards:            []ShardSpec{{Name: "east", Opts: quickOpts(11), Model: m}},
		RestartBackoff:    time.Millisecond,
		MaxRestartBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitState(t, svc, "east", "ready")
	if st := svc.Shards()[0]; st.Model != m.Fingerprint() {
		t.Fatalf("boot-from-model shard serves %s, want %s", st.Model, m.Fingerprint())
	}
	ref, err := pmuoutage.NewSystemFromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	samples := testSamples(t, ref, 2)
	want, err := ref.DetectBatch(samples)
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.DetectBatch(context.Background(), "east", samples)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("boot-from-model shard detects differently from the artifact")
	}
}
