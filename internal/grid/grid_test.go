package grid

import (
	"math"
	"math/cmplx"
	"testing"
)

// ring returns an n-bus ring grid with uniform impedances and a slack at
// bus 0.
func ring(n int) *Grid {
	g := &Grid{Name: "ring", BaseMVA: 100}
	for i := 0; i < n; i++ {
		b := Bus{ID: i + 1, Type: PQ, Vm: 1}
		if i == 0 {
			b.Type = Slack
		}
		g.Buses = append(g.Buses, b)
	}
	for i := 0; i < n; i++ {
		g.Branches = append(g.Branches, Branch{
			From: i, To: (i + 1) % n, R: 0.01, X: 0.1, Status: true,
		})
	}
	return g
}

func TestBusTypeString(t *testing.T) {
	if PQ.String() != "PQ" || PV.String() != "PV" || Slack.String() != "slack" {
		t.Fatal("BusType.String mismatch")
	}
	if BusType(9).String() == "" {
		t.Fatal("unknown BusType must still format")
	}
}

func TestBranchAdmittance(t *testing.T) {
	br := Branch{R: 3, X: 4}
	y := br.Admittance()
	// 1/(3+4i) = (3-4i)/25
	if cmplx.Abs(y-complex(0.12, -0.16)) > 1e-15 {
		t.Fatalf("Admittance = %v", y)
	}
	if (&Branch{}).Admittance() != 0 {
		t.Fatal("zero-impedance branch must yield zero admittance")
	}
}

func TestCloneDeep(t *testing.T) {
	g := ring(4)
	c := g.Clone()
	c.Buses[0].Pd = 99
	c.Branches[0].Status = false
	if g.Buses[0].Pd == 99 || !g.Branches[0].Status {
		t.Fatal("Clone is shallow")
	}
}

func TestWithoutLine(t *testing.T) {
	g := ring(5)
	ng := g.WithoutLine(2)
	if ng.Branches[2].Status {
		t.Fatal("line still in service")
	}
	if !g.Branches[2].Status {
		t.Fatal("original grid mutated")
	}
	// A ring stays connected after one removal...
	if !ng.Connected() {
		t.Fatal("ring minus one line must stay connected")
	}
	// ...but not after two adjacent removals isolating a node.
	ng2 := g.WithoutLines([]Line{0, 1})
	if ng2.Connected() {
		t.Fatal("expected islanding")
	}
}

func TestSlackIndex(t *testing.T) {
	g := ring(3)
	idx, err := g.SlackIndex()
	if err != nil || idx != 0 {
		t.Fatalf("SlackIndex = %d, %v", idx, err)
	}
	g.Buses[1].Type = Slack
	if _, err := g.SlackIndex(); err == nil {
		t.Fatal("expected error for two slacks")
	}
	g.Buses[0].Type = PQ
	g.Buses[1].Type = PQ
	if _, err := g.SlackIndex(); err == nil {
		t.Fatal("expected error for no slack")
	}
}

func TestNeighborsAndLines(t *testing.T) {
	g := ring(5)
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 4 {
		t.Fatalf("Neighbors(0) = %v", nb)
	}
	lines := g.LinesOf(0)
	if len(lines) != 2 {
		t.Fatalf("LinesOf(0) = %v", lines)
	}
	if g.Degree(0) != 2 {
		t.Fatalf("Degree(0) = %d", g.Degree(0))
	}
	// Out-of-service lines disappear from adjacency.
	ng := g.WithoutLine(lines[0])
	if ng.Degree(0) != 1 {
		t.Fatalf("Degree after outage = %d", ng.Degree(0))
	}
}

func TestSubgraphConnected(t *testing.T) {
	g := ring(6)
	if !g.SubgraphConnected([]int{1, 2, 3}) {
		t.Fatal("contiguous ring arc must be connected")
	}
	if g.SubgraphConnected([]int{0, 3}) {
		t.Fatal("opposite ring nodes are not adjacent-connected")
	}
	if !g.SubgraphConnected(nil) || !g.SubgraphConnected([]int{2}) {
		t.Fatal("empty and singleton sets are connected")
	}
}

func TestHopDistances(t *testing.T) {
	g := ring(6)
	d := g.HopDistances(0)
	want := []int{0, 1, 2, 3, 2, 1}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("HopDistances = %v, want %v", d, want)
		}
	}
	ng := g.WithoutLines([]Line{0, 5}) // isolate bus 0
	d = ng.HopDistances(1)
	if d[0] != -1 {
		t.Fatalf("unreachable bus must be -1, got %d", d[0])
	}
}

func TestValidate(t *testing.T) {
	g := ring(4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := g.Clone()
	bad.Branches[0].From = 99
	if bad.Validate() == nil {
		t.Fatal("expected endpoint range error")
	}
	bad = g.Clone()
	bad.Branches[0].To = bad.Branches[0].From
	if bad.Validate() == nil {
		t.Fatal("expected self-loop error")
	}
	bad = g.Clone()
	bad.Branches[0].R, bad.Branches[0].X = 0, 0
	if bad.Validate() == nil {
		t.Fatal("expected zero-impedance error")
	}
	bad = g.Clone()
	for e := range bad.Branches {
		if bad.Branches[e].From == 2 || bad.Branches[e].To == 2 {
			bad.Branches[e].Status = false
		}
	}
	if bad.Validate() == nil {
		t.Fatal("expected connectivity error")
	}
	empty := &Grid{Name: "empty"}
	if empty.Validate() == nil {
		t.Fatal("expected no-bus error")
	}
}

func TestTotalLoad(t *testing.T) {
	g := ring(3)
	g.Buses[1].Pd = 0.5
	g.Buses[2].Pd = 0.25
	if got := g.TotalLoad(); math.Abs(got-0.75) > 1e-15 {
		t.Fatalf("TotalLoad = %v", got)
	}
}
