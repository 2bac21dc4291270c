// Package pmunet models the measurement infrastructure of Figure 1 in
// the paper: one PMU per observed bus, PMUs grouped geographically under
// Phasor Data Concentrators (PDCs), and PDCs feeding the control center.
// It also generates the missing-data patterns of Figure 6 and the
// reliability-weighted pattern distribution of Eqs. (13)–(15).
package pmunet

import (
	"fmt"
	"math/rand"
	"sort"

	"pmuoutage/internal/grid"
)

// Network describes the PMU monitoring overlay of a grid: full
// observability (one PMU per bus, as assumed in §V) partitioned into PDC
// clusters.
type Network struct {
	G        *grid.Grid
	Clusters [][]int // bus indices per PDC, each sorted ascending
	cluster  []int   // bus -> cluster index
}

// Build partitions the grid's buses into nClusters geographically
// contiguous PDC clusters by multi-source BFS from spread-out seeds.
// The partition is deterministic for a given grid.
func Build(g *grid.Grid, nClusters int) (*Network, error) {
	n := g.N()
	if nClusters <= 0 || nClusters > n {
		return nil, fmt.Errorf("pmunet: invalid cluster count %d for %d buses", nClusters, n)
	}
	// Seed selection: farthest-point sampling on hop distance keeps the
	// clusters spread out like real PDC regions.
	seeds := []int{0}
	seedDists := [][]int{g.HopDistances(0)}
	for len(seeds) < nClusters {
		best, bestDist := -1, -1
		for v := 0; v < n; v++ {
			d := 1 << 30
			for _, hd := range seedDists {
				if hd[v] >= 0 && hd[v] < d {
					d = hd[v]
				}
			}
			if d > bestDist && d < 1<<30 {
				best, bestDist = v, d
			}
		}
		if best < 0 {
			break
		}
		seeds = append(seeds, best)
		seedDists = append(seedDists, g.HopDistances(best))
	}
	// Multi-source BFS growth with a capacity cap so the partition stays
	// balanced — real PDCs serve similar-sized regions, and badly skewed
	// clusters starve the out-of-cluster detection groups of members.
	cap := (n + len(seeds) - 1) / len(seeds)
	if cap < 2 {
		cap = 2
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	size := make([]int, len(seeds))
	type item struct{ bus, c int }
	queue := make([]item, 0, n)
	for c, s := range seeds {
		assign[s] = c
		size[c]++
		queue = append(queue, item{s, c})
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, nb := range gAdj(g, it.bus) {
			if assign[nb] < 0 && size[it.c] < cap {
				assign[nb] = it.c
				size[it.c]++
				queue = append(queue, item{nb, it.c})
			}
		}
	}
	// Leftovers (neighbouring clusters all full, or disconnected): join
	// the smallest cluster so balance is preserved.
	for i := range assign {
		if assign[i] < 0 {
			best := 0
			for c := 1; c < len(size); c++ {
				if size[c] < size[best] {
					best = c
				}
			}
			assign[i] = best
			size[best]++
		}
	}
	clusters := make([][]int, len(seeds))
	for v, c := range assign {
		clusters[c] = append(clusters[c], v)
	}
	for _, c := range clusters {
		sort.Ints(c)
	}
	return &Network{G: g, Clusters: clusters, cluster: assign}, nil
}

// FromClusters reconstructs a Network from an explicit PDC partition —
// the decode path of a serialized detection model, where the clusters
// learned at training time must be restored exactly rather than
// re-derived from the grid. The partition must cover every bus exactly
// once; member lists are kept in the given order (Build emits them
// sorted, and codecs preserve that).
func FromClusters(g *grid.Grid, clusters [][]int) (*Network, error) {
	n := g.N()
	if len(clusters) == 0 {
		return nil, fmt.Errorf("pmunet: empty cluster partition")
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for c, members := range clusters {
		for _, b := range members {
			if b < 0 || b >= n {
				return nil, fmt.Errorf("pmunet: cluster %d member %d out of range %d", c, b, n)
			}
			if assign[b] >= 0 {
				return nil, fmt.Errorf("pmunet: bus %d assigned to clusters %d and %d", b, assign[b], c)
			}
			assign[b] = c
		}
	}
	for b, c := range assign {
		if c < 0 {
			return nil, fmt.Errorf("pmunet: bus %d missing from the cluster partition", b)
		}
	}
	copied := make([][]int, len(clusters))
	for c, members := range clusters {
		copied[c] = append([]int(nil), members...)
	}
	return &Network{G: g, Clusters: copied, cluster: assign}, nil
}

// ClusterOf returns the PDC cluster index of a bus.
func (nw *Network) ClusterOf(bus int) int { return nw.cluster[bus] }

// NumClusters returns the number of PDC clusters.
func (nw *Network) NumClusters() int { return len(nw.Clusters) }

// Mask marks which bus measurements are missing in one sample: true
// means the measurement is NOT available at the control center.
type Mask []bool

// NoneMissing returns an all-available mask for n buses.
func NoneMissing(n int) Mask { return make(Mask, n) }

// AnyMissing reports whether at least one measurement is missing.
func (m Mask) AnyMissing() bool {
	for _, b := range m {
		if b {
			return true
		}
	}
	return false
}

// MissingCount returns the number of missing measurements.
func (m Mask) MissingCount() int {
	c := 0
	for _, b := range m {
		if b {
			c++
		}
	}
	return c
}

// Available returns the indices with data present, ascending.
func (m Mask) Available() []int {
	out := make([]int, 0, len(m))
	for i, b := range m {
		if !b {
			out = append(out, i)
		}
	}
	return out
}

// Clone returns a copy of the mask.
func (m Mask) Clone() Mask {
	c := make(Mask, len(m))
	copy(c, m)
	return c
}

// OutageLocationMask returns the Figure 6 (top) pattern: measurements of
// the two endpoint buses of the outaged line are missing — the PMUs at
// the failure location are dead or cut off by the outage itself.
func (nw *Network) OutageLocationMask(e grid.Line) Mask {
	m := NoneMissing(nw.G.N())
	a, b := nw.G.Endpoints(e)
	m[a], m[b] = true, true
	return m
}

// RandomMask returns the Figure 6 (middle/bottom) pattern: k distinct
// buses missing uniformly at random, optionally excluding a set of buses
// (e.g. the outage endpoints, for the uncorrelated-missing study).
func (nw *Network) RandomMask(k int, exclude []int, rng *rand.Rand) Mask {
	n := nw.G.N()
	m := NoneMissing(n)
	ex := map[int]bool{}
	for _, v := range exclude {
		ex[v] = true
	}
	pool := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !ex[v] {
			pool = append(pool, v)
		}
	}
	if k > len(pool) {
		k = len(pool)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for _, v := range pool[:k] {
		m[v] = true
	}
	return m
}

// ClusterMask marks a whole PDC cluster as missing — a PDC failure or a
// targeted attack on one collection point (§III-B).
func (nw *Network) ClusterMask(c int) Mask {
	m := NoneMissing(nw.G.N())
	for _, v := range nw.Clusters[c] {
		m[v] = true
	}
	return m
}

func gAdj(g *grid.Grid, v int) []int { return g.Neighbors(v) }
