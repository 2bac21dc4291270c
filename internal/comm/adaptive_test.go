package comm

import (
	"sync"
	"testing"
	"time"
)

// frame builds a one-bus cluster frame for direct-ingest tests.
func frame(pdc, seq, bus int) ClusterFrame {
	return ClusterFrame{PDC: pdc, Seq: seq, Buses: []int{bus}, Vm: []float64{1}, Va: []float64{0}}
}

// backdate shifts a pending assembly's start time so the next frame
// observes a deterministic latency.
func backdate(t *testing.T, c *Collector, seq int, by time.Duration) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.pending[seq]
	if a == nil {
		t.Fatalf("no pending assembly for seq %d", seq)
	}
	a.started = a.started.Add(-by)
}

func TestAdaptiveDeadlineTracksLatency(t *testing.T) {
	const maxD = 400 * time.Millisecond
	c, err := NewCollector(2, "127.0.0.1:0", maxD)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, 2*time.Second, "collector close", c.Close)

	if d := c.AdaptiveDeadline(); d != maxD {
		t.Fatalf("deadline with no history = %v, want the configured max %v", d, maxD)
	}

	// PDC 1 joins an assembly that opened 100ms ago: its EWMA seeds at
	// ~100ms and the deadline drops to ~2×100ms.
	c.ingest(frame(0, 1, 0))
	backdate(t, c, 1, 100*time.Millisecond)
	c.ingest(frame(1, 1, 1)) // completes seq 1
	if d := c.AdaptiveDeadline(); d < 150*time.Millisecond || d > 250*time.Millisecond {
		t.Fatalf("deadline after one 100ms observation = %v, want ~200ms", d)
	}

	// A run of fast arrivals decays the EWMA until the floor clamps it.
	for seq := 2; seq < 25; seq++ {
		c.ingest(frame(0, seq, 0))
		c.ingest(frame(1, seq, 1))
	}
	if d, want := c.AdaptiveDeadline(), maxD/8; d != want {
		t.Fatalf("deadline after fast traffic = %v, want the floor %v", d, want)
	}
}

// TestAdaptiveDeadlineEmitsEarly: once PDC latencies are known to be
// small, a straggling partial assembly is emitted on the adaptive
// deadline — far before the configured maximum.
func TestAdaptiveDeadlineEmitsEarly(t *testing.T) {
	const maxD = 2 * time.Second
	c, err := NewCollector(2, "127.0.0.1:0", maxD)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, 2*time.Second, "collector close", c.Close)

	// Warm both PDC estimators with fast completions.
	for seq := 0; seq < 10; seq++ {
		c.ingest(frame(0, seq, 0))
		c.ingest(frame(1, seq, 1))
	}
	for range [10]int{} {
		<-c.Samples()
	}

	start := time.Now()
	c.ingest(frame(0, 99, 0)) // bus 1 never arrives
	select {
	case got := <-c.Samples():
		if got.Seq != 99 || got.Sample.Mask == nil {
			t.Fatalf("unexpected emission %+v", got)
		}
		// The adaptive floor is maxD/8 = 250ms; the configured deadline
		// is 2s. Arriving well under the max proves adaptation.
		if waited := time.Since(start); waited >= maxD {
			t.Fatalf("straggler waited the full max deadline (%v)", waited)
		}
	case <-time.After(maxD):
		t.Fatal("straggler never emitted")
	}
}

func TestLateFrameDoesNotReopenEmittedSeq(t *testing.T) {
	c, err := NewCollector(2, "127.0.0.1:0", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, 2*time.Second, "collector close", c.Close)

	c.ingest(ClusterFrame{PDC: 0, Seq: 5, Buses: []int{0, 1}, Vm: []float64{1, 1}, Va: []float64{0, 0}})
	if got := <-c.Samples(); got.Seq != 5 {
		t.Fatalf("emitted seq %d, want 5", got.Seq)
	}
	c.ingest(frame(1, 5, 1)) // straggler for the emitted step
	st := c.Stats()
	if st.Late != 1 || st.Pending != 0 || st.Emitted != 1 {
		t.Fatalf("late frame mishandled: %+v", st)
	}
	select {
	case got := <-c.Samples():
		t.Fatalf("late frame re-emitted seq %d", got.Seq)
	default:
	}
}

func TestEvictedSeqStaysEmitted(t *testing.T) {
	c, err := NewCollector(2, "127.0.0.1:0", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, 2*time.Second, "collector close", c.Close)

	for seq := 0; seq < maxPending; seq++ {
		c.ingest(frame(0, seq, 0))
	}
	backdate(t, c, 0, time.Minute)    // make seq 0 unambiguously stalest
	c.ingest(frame(0, maxPending, 0)) // overflow evicts seq 0
	if got := <-c.Samples(); got.Seq != 0 {
		t.Fatalf("evicted seq %d, want 0", got.Seq)
	}
	c.ingest(frame(1, 0, 1)) // straggler for the evicted step
	st := c.Stats()
	if st.Late != 1 || st.Evicted != 1 || st.Pending != maxPending {
		t.Fatalf("evicted seq reopened: %+v", st)
	}
}

func TestSinkReceivesSynchronously(t *testing.T) {
	c, err := NewCollector(2, "127.0.0.1:0", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, 2*time.Second, "collector close", c.Close)

	c.ingest(ClusterFrame{PDC: 0, Seq: 3, Buses: []int{0, 1}, Vm: []float64{1, 2}, Va: []float64{0, 0}})
	select {
	case got := <-c.Samples():
		if got.Seq != 3 || got.Sample.Vm[1] != 2 {
			t.Fatalf("emitted %+v, want seq 3 with vm[1] = 2", got)
		}
	default:
		t.Fatal("completed sample not on Samples() before ingest returned")
	}
	if st := c.Stats(); st.Emitted != 1 {
		t.Fatalf("delivery not counted: %+v", st)
	}
}

// TestNoDuplicateEmissionUnderRace hammers completion, eviction, and
// the deadline sweep from concurrent PDC readers: whatever path emits a
// sequence first, stragglers for it must be dropped as late — never
// re-assembled and re-reported. Run under -race this also exercises the
// out-of-lock delivery ordering.
func TestNoDuplicateEmissionUnderRace(t *testing.T) {
	c, err := NewCollector(2, "127.0.0.1:0", 3*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for a := range c.Samples() {
			counts[a.Seq]++
		}
	}()

	// Two PDCs per bus: the second pair's frames often land after the
	// first pair completed the sequence.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := 0; seq < 2*maxPending; seq++ {
				c.ingest(frame(g, seq, g&1))
			}
		}(g)
	}
	wg.Wait()
	c.Flush()
	closeWithin(t, 2*time.Second, "collector close", c.Close)
	<-drained // Close closed Samples() after its last delivery

	var total uint64
	for seq, n := range counts {
		if n > 1 {
			t.Fatalf("seq %d emitted %d times", seq, n)
		}
		total += uint64(n)
	}
	if st := c.Stats(); st.Emitted != total {
		t.Fatalf("Emitted = %d but Samples() carried %d samples", st.Emitted, total)
	}
}
