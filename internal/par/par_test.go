package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("positive worker count must pass through")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("non-positive worker count must resolve to GOMAXPROCS")
	}
}

func TestMapOrderPreserved(t *testing.T) {
	// Finish order is scrambled on purpose: early items sleep longest.
	const n = 64
	for _, workers := range []int{1, 2, 8} {
		out, err := Map(context.Background(), workers, n, func(_ context.Context, i int) (int, error) {
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		workers int
		// viaHelper holds the caller in item 0 until item 3 has started,
		// so a helper, not the caller, claims the failing item.
		viaHelper bool
	}{{1, false}, {4, false}, {4, true}} {
		var ran atomic.Int64
		failing := make(chan struct{})
		err := ForEach(context.Background(), c.workers, 100, func(ctx context.Context, i int) error {
			ran.Add(1)
			switch {
			case i == 3:
				close(failing)
				return boom
			case i == 0 && c.viaHelper:
				return waitFor(failing, "item 3")
			case i < 3:
				return nil
			}
			// Items after the failure block until cancelled, so the real
			// error must win the race and the Canceled errors these items
			// return must not displace it.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Second):
				return fmt.Errorf("item %d never saw cancellation", i)
			}
		})
		if !errors.Is(err, boom) {
			t.Fatalf("%+v: err = %v, want %v", c, err, boom)
		}
		if n := ran.Load(); n == 100 {
			t.Fatalf("%+v: scheduling did not stop after the error", c)
		}
	}
}

func TestForEachCancellationStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := ForEach(ctx, 2, 1000, func(ctx context.Context, i int) error {
			started.Add(1)
			<-release
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	// Wait until both workers hold an item (the helper joins once the
	// caller's item has outlasted spawnAfter), cancel, then release.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	wg.Wait()
	// 2 running, and each worker checks for cancellation before it claims
	// another item; nothing close to all 1000.
	if n := started.Load(); n > 10 {
		t.Fatalf("%d items started after cancellation", n)
	}
}

func TestForEachPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEach(ctx, 4, 50, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		// ForEach checks the context before it claims the first item.
		t.Fatalf("%d items ran under a pre-cancelled context", ran.Load())
	}
}

func TestPanicPropagated(t *testing.T) {
	for _, c := range []struct {
		workers int
		// viaHelper holds the caller in item 0 until item 7 has started,
		// so a helper, not the caller, claims the panicking item.
		viaHelper bool
	}{{1, false}, {4, false}, {4, true}} {
		panicking := make(chan struct{})
		r := recovered(func() {
			_ = ForEach(context.Background(), c.workers, 20, func(_ context.Context, i int) error {
				switch {
				case i == 7:
					close(panicking)
					panic("kaboom")
				case i == 0 && c.viaHelper:
					return waitFor(panicking, "item 7")
				}
				return nil
			})
		})
		if r == nil {
			t.Fatalf("%+v: panic was swallowed", c)
		}
		p, ok := r.(Panic)
		if !ok {
			t.Fatalf("%+v: recovered %T, want par.Panic", c, r)
		}
		if p.Index != 7 || p.Value != "kaboom" {
			t.Fatalf("%+v: panic = %s", c, shape(p))
		}
		if len(p.Stack) == 0 {
			t.Fatalf("%+v: panic lost its stack", c)
		}
	}
}

// TestNestedPanicSameForEveryWorkerCount: a panic two ForEach levels
// deep is re-raised as the same Panic inside a Panic whatever the worker
// count and whichever goroutine runs the outer item.
func TestNestedPanicSameForEveryWorkerCount(t *testing.T) {
	const want = "Panic{1, Panic{2, deep}}"
	for _, c := range []struct {
		workers int
		// viaHelper holds the caller in outer item 0 until outer item 1
		// has started, so a helper runs the inner call.
		viaHelper bool
	}{{1, false}, {2, false}, {4, false}, {2, true}, {4, true}} {
		outer1 := make(chan struct{})
		r := recovered(func() {
			_ = ForEach(context.Background(), c.workers, 3, func(ctx context.Context, i int) error {
				switch {
				case i == 1:
					close(outer1)
				case i == 0 && c.viaHelper:
					return waitFor(outer1, "outer item 1")
				}
				return ForEach(ctx, c.workers, 3, func(_ context.Context, j int) error {
					if i == 1 && j == 2 {
						panic("deep")
					}
					return nil
				})
			})
		})
		if got := shape(r); got != want {
			t.Fatalf("%+v: recovered %s, want %s", c, got, want)
		}
	}
}

// TestShortCallRunsOnCaller: a call that ends before spawnAfter runs
// every item on the calling goroutine and starts no helper.
func TestShortCallRunsOnCaller(t *testing.T) {
	caller := goid()
	onCaller := 0
	for range 10 {
		var elsewhere atomic.Int64
		err := ForEach(context.Background(), 4, 8, func(context.Context, int) error {
			if goid() != caller {
				elsewhere.Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if elsewhere.Load() == 0 {
			onCaller++
		}
	}
	if onCaller < 9 {
		t.Fatalf("8 trivial items at workers 4 ran on the caller alone in %d of 10 calls, want at least 9", onCaller)
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	out, err := Map(context.Background(), 4, 10, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("Map = (%v, %v), want nil results with error", out, err)
	}
}

func TestZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, nil); err != nil {
		t.Fatalf("n=0: err = %v", err)
	}
	out, err := Map(context.Background(), 4, 0, func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("n=0 Map = (%v, %v)", out, err)
	}
}

func TestPanicStringMentionsIndex(t *testing.T) {
	p := Panic{Index: 3, Value: "v", Stack: []byte("stack")}
	s := p.String()
	if !strings.Contains(s, "item 3") || !strings.Contains(s, "v") {
		t.Fatalf("Panic.String() = %q", s)
	}
}

// recovered runs f and returns the value it panicked with, nil if it
// returned.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// shape prints a recovered value's Panic nesting without the stacks.
func shape(r any) string {
	if p, ok := r.(Panic); ok {
		return fmt.Sprintf("Panic{%d, %s}", p.Index, shape(p.Value))
	}
	return fmt.Sprint(r)
}

// waitFor blocks until ch is closed, or fails the item after 5 s.
func waitFor(ch <-chan struct{}, what string) error {
	select {
	case <-ch:
		return nil
	case <-time.After(5 * time.Second):
		return fmt.Errorf("%s never started", what)
	}
}

// goid is the calling goroutine's ID, from the "goroutine N [running]:"
// line runtime.Stack writes first.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}
