// Package par is the deterministic parallel-execution layer: data
// generation fans out per scenario, training per line and per node, the
// reliability sweep per Monte Carlo shard, and batch detection per
// sample (see DESIGN.md "Deterministic parallel execution").
//
// The package is stdlib-only and deliberately small. Its one structural
// guarantee is determinism: Map and ForEach assign results by input
// index, so the output of a parallel run is byte-identical to the
// sequential one as long as the per-item work is itself deterministic —
// which the pipeline arranges by splitting RNG seeds per item instead of
// sharing one stream. Worker counts therefore change wall-clock time,
// never results.
//
// A call runs on its caller: the calling goroutine claims items and runs
// them itself, and the other workers join only a call still running
// spawnAfter after it began, so a short call never wakes another thread.
//
// Error semantics are "first error wins": the first failure is
// returned, remaining unclaimed items are skipped, and the shared
// context is cancelled so in-flight items can stop early. A panic is
// re-raised on the calling goroutine wrapped in a Panic value that
// records the item index and original payload, at every worker count.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spawnAfter is how long a call runs on its caller alone before the other
// workers start: about three of a spawned helper's 59–83 µs start delays
// (CHANGES.md), so a call shorter than that costs less CPU on the caller.
const spawnAfter = 200 * time.Microsecond

// Workers resolves a worker-count option: n itself when positive,
// otherwise GOMAXPROCS (the "0 = use every core" convention shared by
// every Workers field in the pipeline).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Panic wraps a panic captured inside a worker so it can be re-raised on
// the calling goroutine without losing where it came from.
type Panic struct {
	// Index is the input index of the item whose function panicked.
	Index int
	// Value is the original panic payload.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// String formats the transported panic for the re-raise.
func (p Panic) String() string {
	return fmt.Sprintf("par: item %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// ForEach runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 selects GOMAXPROCS), the caller's first; the
// others join a call still running spawnAfter after it began. The first
// error wins and is returned; if ctx is cancelled first, the context's
// error is. Claiming stops at the first failure or cancellation; items
// already running are left to finish (their fn sees the cancelled
// context). A panic inside fn is re-raised on the caller's goroutine as
// a Panic value carrying the item index and the panicking goroutine's
// stack; of several, the lowest index wins.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err // pre-cancelled: run nothing
	}
	c := &call{ctx: ctx, n: n, fn: fn}
	if workers = min(Workers(workers), n); workers == 1 {
		c.work()
	} else {
		c.ctx, c.cancel = context.WithCancel(ctx)
		defer c.cancel()
		var wg sync.WaitGroup
		wg.Add(1) // the timer's goroutine: the first helper, which starts the rest
		timer := time.AfterFunc(spawnAfter, func() {
			defer wg.Done()
			wg.Add(workers - 2)
			for range workers - 2 {
				go func() {
					defer wg.Done()
					c.work()
				}()
			}
			c.work()
		})
		c.work()
		if timer.Stop() {
			wg.Done() // it never fired
		}
		wg.Wait()
	}
	if c.panic != nil {
		panic(*c.panic)
	}
	if c.err != nil {
		return c.err
	}
	return ctx.Err()
}

// call is the state one ForEach call's workers share.
type call struct {
	ctx    context.Context
	cancel context.CancelFunc // nil when the caller runs alone
	n      int
	fn     func(ctx context.Context, i int) error
	next   atomic.Int64 // the next unclaimed index

	mu    sync.Mutex
	err   error  // the first error
	panic *Panic // the lowest-indexed panic
}

// work is the claim loop every worker runs: it claims the next index
// and runs that item until none is left, an item it ran failed, or the
// call's context is cancelled.
func (c *call) work() {
	for c.ctx.Err() == nil {
		i := int(c.next.Add(1)) - 1
		if i >= c.n || !c.run(i) {
			return
		}
	}
}

// run runs item i, records its error or panic, and reports success.
func (c *call) run(i int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			c.fail(nil, &Panic{Index: i, Value: r, Stack: stack()})
		}
	}()
	if err := c.fn(c.ctx, i); err != nil {
		c.fail(err, nil)
		return false
	}
	return true
}

// fail records an item's error or panic and cancels the call's own
// context, if it has one, so the other workers claim nothing more and
// in-flight items can stop early. The first error wins; of several
// panics, the lowest index does.
func (c *call) fail(err error, p *Panic) {
	if c.cancel != nil {
		defer c.cancel()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	if p != nil && (c.panic == nil || p.Index < c.panic.Index) {
		c.panic = p
	}
}

// Map runs fn over [0, n) like ForEach and collects the results in input
// order: out[i] is fn's value for item i regardless of which worker
// finished first. On error the partial results are discarded.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v // exclusive index: no two items share i
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func stack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}
