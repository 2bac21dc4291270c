package comm

import (
	"sort"
	"testing"
	"time"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/pmunet"
)

// network spins up a collector, one PDC per cluster, and one PMU per bus
// on the loopback interface.
type network struct {
	col  *Collector
	pdcs []*PDC
	pmus []*PMU
}

func buildNetwork(t *testing.T, n int, clusters [][]int, loss float64) *network {
	t.Helper()
	col, err := NewCollector(n, "127.0.0.1:0", 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	nw := &network{col: col, pmus: make([]*PMU, n)}
	for ci, members := range clusters {
		pdc, err := NewPDC(ci, "127.0.0.1:0", col.Addr(), 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		nw.pdcs = append(nw.pdcs, pdc)
		for _, bus := range members {
			pmu, err := NewPMU(bus, pdc.Addr(), loss, int64(bus)+1)
			if err != nil {
				t.Fatal(err)
			}
			nw.pmus[bus] = pmu
		}
	}
	t.Cleanup(func() {
		for _, p := range nw.pmus {
			if p != nil {
				p.Close()
			}
		}
		for _, p := range nw.pdcs {
			p.Close()
		}
		col.Close()
	})
	return nw
}

// broadcast sends one synthetic time step from every PMU.
func (nw *network) broadcast(t *testing.T, seq int) {
	t.Helper()
	for bus, p := range nw.pmus {
		if p == nil {
			continue
		}
		if err := p.Send(seq, 1+float64(bus)/100, -float64(bus)/100); err != nil {
			t.Fatal(err)
		}
	}
}

// collect waits for one assembled sample or times out.
func collect(t *testing.T, col *Collector, timeout time.Duration) Assembled {
	t.Helper()
	select {
	case a, ok := <-col.Samples():
		if !ok {
			t.Fatal("collector closed early")
		}
		return a
	case <-time.After(timeout):
		t.Fatal("timed out waiting for assembled sample")
	}
	panic("unreachable")
}

func smallClusters() [][]int {
	return [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7}}
}

func TestCompleteAssembly(t *testing.T) {
	nw := buildNetwork(t, 8, smallClusters(), 0)
	nw.broadcast(t, 1)
	a := collect(t, nw.col, 2*time.Second)
	if a.Seq != 1 {
		t.Fatalf("Seq = %d", a.Seq)
	}
	if !a.Sample.Complete() {
		t.Fatalf("expected complete sample, mask = %v", a.Sample.Mask)
	}
	for bus := 0; bus < 8; bus++ {
		if a.Sample.Vm[bus] != 1+float64(bus)/100 {
			t.Fatalf("bus %d Vm = %v", bus, a.Sample.Vm[bus])
		}
	}
}

func TestDeadPMUBecomesMissing(t *testing.T) {
	nw := buildNetwork(t, 8, smallClusters(), 0)
	nw.pmus[4].SetDown(true)
	nw.broadcast(t, 7)
	a := collect(t, nw.col, 2*time.Second)
	if a.Sample.Complete() {
		t.Fatal("expected missing entry for dead PMU")
	}
	if !a.Sample.Missing(4) {
		t.Fatalf("bus 4 should be missing, mask = %v", a.Sample.Mask)
	}
	if a.Sample.Missing(3) {
		t.Fatal("bus 3 arrived but is marked missing")
	}
}

func TestDarkPDCDropsWholeCluster(t *testing.T) {
	nw := buildNetwork(t, 8, smallClusters(), 0)
	nw.pdcs[2].SetDown(true) // cluster {5,6,7} goes dark
	nw.broadcast(t, 3)
	a := collect(t, nw.col, 2*time.Second)
	var missing []int
	for bus := 0; bus < 8; bus++ {
		if a.Sample.Missing(bus) {
			missing = append(missing, bus)
		}
	}
	sort.Ints(missing)
	want := []int{5, 6, 7}
	if len(missing) != 3 || missing[0] != want[0] || missing[1] != want[1] || missing[2] != want[2] {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
}

func TestLossyLinkEventuallyDrops(t *testing.T) {
	nw := buildNetwork(t, 8, smallClusters(), 0.5)
	sawMissing := false
	for seq := 1; seq <= 10 && !sawMissing; seq++ {
		nw.broadcast(t, seq)
		a := collect(t, nw.col, 2*time.Second)
		if a.Sample.Mask != nil && a.Sample.Mask.AnyMissing() {
			sawMissing = true
		}
	}
	if !sawMissing {
		t.Fatal("50% loss never produced a missing entry in 10 steps")
	}
}

func TestMultipleSequencesInterleaved(t *testing.T) {
	nw := buildNetwork(t, 8, smallClusters(), 0)
	nw.broadcast(t, 1)
	nw.broadcast(t, 2)
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		a := collect(t, nw.col, 2*time.Second)
		seen[a.Seq] = true
		if !a.Sample.Complete() {
			t.Fatalf("seq %d incomplete", a.Seq)
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("assembled seqs = %v", seen)
	}
}

func TestPMUValidation(t *testing.T) {
	if _, err := NewPMU(0, "127.0.0.1:1", -0.1, 1); err == nil {
		t.Fatal("expected loss-range error")
	}
	if _, err := NewPMU(0, "127.0.0.1:0", 0, 1); err == nil {
		t.Fatal("expected dial error for port 0")
	}
}

func TestCollectorValidation(t *testing.T) {
	if _, err := NewCollector(0, "127.0.0.1:0", 0); err == nil {
		t.Fatal("expected bus-count error")
	}
}

func TestCollectorCloseIdempotent(t *testing.T) {
	col, err := NewCollector(4, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
}

// closeWithin fails the test if fn does not return within d — the
// regression guard for Close calls that used to deadlock in wg.Wait
// while reader goroutines sat in Scan on still-open connections.
func closeWithin(t *testing.T, d time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

func TestPDCCloseIdempotent(t *testing.T) {
	col, err := NewCollector(4, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	pdc, err := NewPDC(0, "127.0.0.1:0", col.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pdc.Close(); err != nil {
		t.Fatal(err)
	}
	// Second close must neither panic (done was closed once already) nor
	// report the already-closed sockets.
	if err := pdc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPDCCloseWithConnectedPMUs(t *testing.T) {
	col, err := NewCollector(4, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	pdc, err := NewPDC(0, "127.0.0.1:0", col.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var pmus []*PMU
	for bus := 0; bus < 2; bus++ {
		pmu, err := NewPMU(bus, pdc.Addr(), 0, int64(bus)+1)
		if err != nil {
			t.Fatal(err)
		}
		defer pmu.Close()
		pmus = append(pmus, pmu)
	}
	// Make sure the PDC has actually accepted the connections and its
	// readers are parked in Scan before closing it out from under them.
	for _, pmu := range pmus {
		if err := pmu.Send(1, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	closeWithin(t, 2*time.Second, "PDC.Close with live PMU conns", pdc.Close)
}

func TestCollectorCloseWithConnectedPDCs(t *testing.T) {
	col, err := NewCollector(4, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	pdc, err := NewPDC(0, "127.0.0.1:0", col.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pdc.Close()
	time.Sleep(50 * time.Millisecond) // let the collector accept the PDC conn
	closeWithin(t, 2*time.Second, "Collector.Close with live PDC conn", col.Close)
}

func TestEndToEndWithRealGridTopology(t *testing.T) {
	// Use the IEEE-14 PDC partition for the network layout, dropping the
	// outage-location PMUs, and check the assembled mask matches the
	// pmunet outage mask.
	g := cases.IEEE14()
	p, err := pmunet.Build(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw := buildNetwork(t, g.N(), p.Clusters, 0)
	e := 0
	a, b := g.Endpoints(0)
	nw.pmus[a].SetDown(true)
	nw.pmus[b].SetDown(true)
	nw.broadcast(t, 5)
	got := collect(t, nw.col, 2*time.Second)
	want := p.OutageLocationMask(0)
	for bus := 0; bus < g.N(); bus++ {
		if got.Sample.Missing(bus) != want[bus] {
			t.Fatalf("bus %d: missing=%v, want %v (line %d endpoints %d,%d)",
				bus, got.Sample.Missing(bus), want[bus], e, a, b)
		}
	}
}

// TestCollectorStats: emission outcomes are counted — complete and
// incomplete emissions, and the live pending gauge.
func TestCollectorStats(t *testing.T) {
	nw := buildNetwork(t, 8, smallClusters(), 0)
	// The collector counts an emission just after handing the sample
	// over, so the receiver can read Stats first: wait for the count.
	statsAfter := func(emitted uint64) CollectorStats {
		deadline := time.Now().Add(2 * time.Second)
		for nw.col.Stats().Emitted < emitted && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return nw.col.Stats()
	}
	nw.broadcast(t, 1)
	collect(t, nw.col, 2*time.Second)
	st := statsAfter(1)
	if st.Emitted != 1 || st.Incomplete != 0 || st.DroppedFull != 0 {
		t.Fatalf("after complete step: %+v", st)
	}

	// A partial step (one PMU silent) sits pending until the deadline
	// sweep emits it with gaps.
	for bus, p := range nw.pmus {
		if bus == 3 {
			continue
		}
		if err := p.Send(2, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for nw.col.Stats().Pending == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if nw.col.Stats().Pending == 0 {
		t.Fatal("partial step never became pending")
	}
	a := collect(t, nw.col, 2*time.Second)
	if a.Sample.Complete() {
		t.Fatal("partial step emitted without missing entries")
	}
	st = statsAfter(2)
	if st.Emitted != 2 || st.Incomplete != 1 {
		t.Fatalf("after partial step: %+v", st)
	}
}
