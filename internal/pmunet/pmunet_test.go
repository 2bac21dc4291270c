package pmunet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/grid"
)

func TestBuildPartition(t *testing.T) {
	g := cases.IEEE30()
	nw, err := Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumClusters() != 4 {
		t.Fatalf("NumClusters = %d", nw.NumClusters())
	}
	// Every bus in exactly one cluster.
	seen := make([]int, g.N())
	for c, cl := range nw.Clusters {
		if len(cl) == 0 {
			t.Errorf("cluster %d empty", c)
		}
		for _, v := range cl {
			seen[v]++
			if nw.ClusterOf(v) != c {
				t.Errorf("ClusterOf(%d) = %d, want %d", v, nw.ClusterOf(v), c)
			}
		}
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("bus %d appears in %d clusters", v, n)
		}
	}
}

// TestFromClustersRestoresPartition: the model-decode constructor must
// reproduce the exact partition Build produced, and reject partitions
// that do not cover every bus exactly once.
func TestFromClustersRestoresPartition(t *testing.T) {
	g := cases.IEEE30()
	built, err := Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := FromClusters(g, built.Clusters)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if nw.ClusterOf(v) != built.ClusterOf(v) {
			t.Fatalf("ClusterOf(%d) = %d, Build said %d", v, nw.ClusterOf(v), built.ClusterOf(v))
		}
	}
	// The restored partition is a copy: mutating it must not alias the
	// caller's slices.
	nw.Clusters[0][0] = built.Clusters[0][0]

	for _, bad := range [][][]int{
		{},       // empty partition
		{{0, 1}}, // misses buses
		{built.Clusters[0], built.Clusters[0], built.Clusters[1]}, // duplicates
		{{-1}},    // out of range
		{{g.N()}}, // out of range
	} {
		if _, err := FromClusters(g, bad); err == nil {
			t.Fatalf("FromClusters accepted invalid partition %v", bad)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	g := cases.IEEE14()
	if _, err := Build(g, 0); err == nil {
		t.Fatal("expected error for zero clusters")
	}
	if _, err := Build(g, 99); err == nil {
		t.Fatal("expected error for more clusters than buses")
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := cases.IEEE57()
	a, _ := Build(g, 4)
	b, _ := Build(g, 4)
	for c := range a.Clusters {
		if len(a.Clusters[c]) != len(b.Clusters[c]) {
			t.Fatal("partition not deterministic")
		}
		for i := range a.Clusters[c] {
			if a.Clusters[c][i] != b.Clusters[c][i] {
				t.Fatal("partition not deterministic")
			}
		}
	}
}

func TestMaskBasics(t *testing.T) {
	m := NoneMissing(5)
	if m.AnyMissing() || m.MissingCount() != 0 {
		t.Fatal("fresh mask must be all available")
	}
	m[2] = true
	if !m.AnyMissing() || m.MissingCount() != 1 {
		t.Fatal("mask accounting wrong")
	}
	av := m.Available()
	if len(av) != 4 {
		t.Fatalf("Available = %v", av)
	}
	for _, v := range av {
		if v == 2 {
			t.Fatal("missing bus listed as available")
		}
	}
	c := m.Clone()
	c[0] = true
	if m[0] {
		t.Fatal("Clone shares storage")
	}
}

func TestOutageLocationMask(t *testing.T) {
	g := cases.IEEE14()
	nw, _ := Build(g, 3)
	e := grid.Line(0)
	a, b := g.Endpoints(e)
	m := nw.OutageLocationMask(e)
	if !m[a] || !m[b] {
		t.Fatal("endpoints must be missing")
	}
	if m.MissingCount() != 2 {
		t.Fatalf("MissingCount = %d, want 2", m.MissingCount())
	}
}

func TestRandomMaskRespectsExclusionsAndCount(t *testing.T) {
	g := cases.IEEE30()
	nw, _ := Build(g, 4)
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		k := int(seed%7+7) % 7
		excl := []int{0, 5, 10}
		m := nw.RandomMask(k, excl, rng)
		if m.MissingCount() != k {
			return false
		}
		for _, v := range excl {
			if m[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	// Requesting more than the pool clamps.
	m := nw.RandomMask(1000, nil, rng)
	if m.MissingCount() != g.N() {
		t.Fatalf("clamped count = %d, want %d", m.MissingCount(), g.N())
	}
}

func TestClusterMask(t *testing.T) {
	g := cases.IEEE30()
	nw, _ := Build(g, 4)
	m := nw.ClusterMask(1)
	if m.MissingCount() != len(nw.Clusters[1]) {
		t.Fatal("cluster mask size mismatch")
	}
	for _, v := range nw.Clusters[1] {
		if !m[v] {
			t.Fatalf("cluster member %d not masked", v)
		}
	}
}

func TestReliabilityMath(t *testing.T) {
	rel := Reliability{RPMU: 0.99, RLink: 0.98}
	if err := rel.Validate(); err != nil {
		t.Fatal(err)
	}
	q := rel.DeviceAvailability()
	if math.Abs(q-0.9702) > 1e-12 {
		t.Fatalf("q = %v", q)
	}
	r := rel.SystemReliability(14)
	if math.Abs(r-math.Pow(0.9702, 14)) > 1e-12 {
		t.Fatalf("r = %v", r)
	}
	if (Reliability{RPMU: 0, RLink: 1}).Validate() == nil {
		t.Fatal("expected validation error")
	}
}

func TestFromSystemReliabilityRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 0.01 + 0.98*rng.Float64()
		l := 1 + rng.Intn(200)
		rel, err := FromSystemReliability(r, l)
		if err != nil {
			return false
		}
		return math.Abs(rel.SystemReliability(l)-r) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := FromSystemReliability(0, 5); err == nil {
		t.Fatal("expected error for r=0")
	}
	if _, err := FromSystemReliability(0.5, 0); err == nil {
		t.Fatal("expected error for L=0")
	}
}

func TestSampleMaskMatchesReliability(t *testing.T) {
	g := cases.IEEE14()
	nw, _ := Build(g, 3)
	rel := Reliability{RPMU: 0.95, RLink: 1}
	rng := rand.New(rand.NewSource(11))
	var missing, total int
	for k := 0; k < 5000; k++ {
		m := nw.SampleMask(rel, rng)
		missing += m.MissingCount()
		total += len(m)
	}
	frac := float64(missing) / float64(total)
	if math.Abs(frac-0.05) > 0.01 {
		t.Fatalf("empirical missing fraction = %.4f, want ~0.05", frac)
	}
}

func TestEnumeratePatternsSumsToOne(t *testing.T) {
	// Small ad-hoc network: probabilities over all 2^L patterns must
	// integrate to 1 (the weights of Eq. 13).
	g := miniGrid(8)
	nw, _ := Build(g, 2)
	rel := Reliability{RPMU: 0.93, RLink: 0.99}
	var sum float64
	count := 0
	err := nw.EnumeratePatterns(rel, func(m Mask, p float64) bool {
		sum += p
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 256 {
		t.Fatalf("pattern count = %d, want 256", count)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probability sum = %v", sum)
	}
}

func TestEnumeratePatternsRefusesLargeL(t *testing.T) {
	g := cases.IEEE30()
	nw, _ := Build(g, 4)
	err := nw.EnumeratePatterns(Reliability{RPMU: 0.9, RLink: 1}, func(Mask, float64) bool { return true })
	if err == nil {
		t.Fatal("expected refusal for L=30")
	}
}

func TestEnumeratePatternsEarlyStop(t *testing.T) {
	g := miniGrid(6)
	nw, _ := Build(g, 2)
	count := 0
	nw.EnumeratePatterns(Reliability{RPMU: 0.9, RLink: 1}, func(Mask, float64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop after %d calls, want 5", count)
	}
}

// miniGrid builds a small ring for enumeration tests.
func miniGrid(n int) *grid.Grid {
	g := &grid.Grid{Name: "mini", BaseMVA: 100}
	for i := 0; i < n; i++ {
		b := grid.Bus{ID: i + 1, Type: grid.PQ, Vm: 1}
		if i == 0 {
			b.Type = grid.Slack
		}
		g.Buses = append(g.Buses, b)
	}
	for i := 0; i < n; i++ {
		g.Branches = append(g.Branches, grid.Branch{From: i, To: (i + 1) % n, R: 0.01, X: 0.1, Status: true})
	}
	return g
}
