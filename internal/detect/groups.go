package detect

import (
	"fmt"
	"math"
	"sort"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/mat"
	"pmuoutage/internal/metrics"
	"pmuoutage/internal/pmunet"
)

// Group is one cluster's detection group: the in-cluster members
// D_C(C) and the out-of-cluster alternates D_C(C̄) of Eqs. 8 and 10.
// Detector.group serves their union less the masked members, which is
// D_C(C̄) when the whole cluster is dark. Members are bus indices.
type Group struct {
	InCluster  []int `json:"in_cluster"`
	OutCluster []int `json:"out_cluster"`
}

// GroupConfig tunes detection-group formation.
type GroupConfig struct {
	// Size is the target member count per group side; 0 derives it from
	// the grid size (at least 4, roughly N/6).
	Size int `json:"size"`
	// Mix is the fraction of members chosen by learned capability
	// (Eq. 8); the rest come from the naive PCA-orthogonality choice.
	// Mix = 1 is the paper's proposed group (Fig. 4's x-axis). Through
	// detect.Config the zero value selects the default of 1; pass a
	// negative Mix to request the pure naive (orthogonal-only) group.
	Mix float64 `json:"mix"`
	// Channel maps buses to feature rows for the PCA loadings.
	Channel dataset.Channel `json:"channel"`
}

func (c GroupConfig) withDefaults(n int) GroupConfig {
	if c.Size <= 0 {
		// Groups must stay comfortably larger than the subspace ranks
		// they discriminate (a node's lines together, max node degree
		// times the line rank, plus the S⁰ rank), or the restricted
		// residuals degenerate to zero.
		c.Size = n / 3
		if c.Size < 8 {
			c.Size = 8
		}
	}
	if c.Mix < 0 {
		c.Mix = 0
	}
	if c.Mix > 1 {
		c.Mix = 1
	}
	return c
}

// BuildGroups forms one detection group per PDC cluster from the
// capability matrix P of Eqs. (6)–(7) and the PCA loadings of the
// pooled outage-deviation data. loadings has one row per feature
// (dev-data left singular vectors); it may be nil when Mix = 1.
func BuildGroups(nw *pmunet.Network, p [][]float64, loadings *mat.Dense, cfg GroupConfig) ([]Group, error) {
	n := nw.G.N()
	cfg = cfg.withDefaults(n)
	groups := make([]Group, nw.NumClusters())
	for c := range groups {
		cluster := nw.Clusters[c]
		inPool := cluster
		outPool := complement(n, cluster)

		capIn := capabilityMembers(p, cluster, inPool)
		capOut := capabilityMembers(p, cluster, outPool)

		nCap := int(math.Round(cfg.Mix * float64(cfg.Size)))
		nOrth := cfg.Size - nCap

		var orthIn, orthOut []int
		if nOrth > 0 {
			if loadings == nil {
				return nil, fmt.Errorf("detect: group mix %.2f needs PCA loadings", cfg.Mix)
			}
			orthIn = orthogonalMembers(loadings, inPool, cfg.Channel, n, nOrth+len(inPool))
			orthOut = orthogonalMembers(loadings, outPool, cfg.Channel, n, nOrth+len(outPool))
		}
		// The intact-cluster group D_C(C) leads with in-cluster members
		// but is topped up from outside so it always has "a sufficient
		// number of nodes from separated sensing regions" (§IV-B) — a
		// PDC cluster alone is far smaller than a useful group. The
		// alternate D_C(C̄) must work when the whole cluster is dark, so
		// it draws exclusively from outside.
		groups[c] = Group{
			InCluster:  mixMembers(append(capIn, capOut...), append(orthIn, orthOut...), nCap, cfg.Size),
			OutCluster: mixMembers(capOut, orthOut, nCap, cfg.Size),
		}
		if len(groups[c].InCluster) == 0 {
			groups[c].InCluster = cluster // degenerate fallback
		}
		if len(groups[c].OutCluster) == 0 {
			groups[c].OutCluster = outPool
		}
	}
	return groups, nil
}

// capabilityMembers implements Eq. (8) for one pool (inside or outside
// the cluster): pool nodes ranked by their worst-case capability over
// the cluster, min_{k∈C} p_{k,i}, best first. Nodes with p ≈ 1 for every
// cluster member — the literal Eq. (8) set — sort to the front; the
// ranked tail lets groups fill to the size detection requires.
func capabilityMembers(p [][]float64, cluster, pool []int) []int {
	type scored struct {
		node  int
		worst float64
	}
	var all []scored
	for _, i := range pool {
		worst := 1.0
		for _, k := range cluster {
			if pk := p[k][i]; pk < worst {
				worst = pk
			}
		}
		all = append(all, scored{i, worst})
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].worst > all[b].worst })
	// Qualified nodes (p ≈ 1) lead; the rest follow in capability order
	// so groups can always be filled to their target size — the Eq. (8)
	// threshold is a preference, and starving a group below the size
	// needed to out-dimension the subspaces would break detection.
	out := make([]int, 0, len(all))
	for _, s := range all {
		out = append(out, s.node)
	}
	return out
}

// orthogonalMembers is the naive PCA choice of §IV-B: greedily pick pool
// nodes whose loading vectors are most mutually orthogonal.
func orthogonalMembers(loadings *mat.Dense, pool []int, ch dataset.Channel, n, want int) []int {
	var cands []loadingCand
	for _, i := range pool {
		var v []float64
		switch ch {
		case dataset.Stacked:
			v = append(loadings.Row(i), loadings.Row(i+n)...)
		default:
			v = loadings.Row(i)
		}
		nrm := mat.Norm2(v)
		if metrics.NearZero(nrm, metrics.DefaultEps) {
			continue // numerically dead loading row; dividing by it would amplify noise
		}
		cands = append(cands, loadingCand{i, v, nrm})
	}
	if len(cands) == 0 {
		return nil
	}
	// Start from the strongest loading.
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].nrm > cands[b].nrm })
	sel := []loadingCand{cands[0]}
	for len(sel) < want {
		best := -1
		bestCos := math.Inf(1)
		for ci, c := range cands {
			if ci == 0 || containsNode(sel, c.node) {
				continue
			}
			worst := 0.0
			for _, s := range sel {
				cos := math.Abs(mat.Dot(c.vec, s.vec)) / (c.nrm * s.nrm)
				if cos > worst {
					worst = cos
				}
			}
			if worst < bestCos {
				bestCos, best = worst, ci
			}
		}
		if best < 0 || bestCos > 0.7 {
			break // no sufficiently orthogonal candidate left
		}
		sel = append(sel, cands[best])
	}
	out := make([]int, len(sel))
	for i, s := range sel {
		out[i] = s.node
	}
	sort.Ints(out)
	return out
}

// loadingCand pairs a bus with its PCA loading vector.
type loadingCand struct {
	node int
	vec  []float64
	nrm  float64
}

func containsNode(sel []loadingCand, node int) bool {
	for _, s := range sel {
		if s.node == node {
			return true
		}
	}
	return false
}

// mixMembers combines nCap capability members with orthogonal members up
// to the target size, deduplicated, capability members first.
func mixMembers(capM, orthM []int, nCap, size int) []int {
	seen := map[int]bool{}
	var out []int
	add := func(v int) {
		if !seen[v] && len(out) < size {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range capM {
		if len(out) >= nCap {
			break
		}
		add(v)
	}
	for _, v := range orthM {
		add(v)
	}
	// Deliberately no capability top-up: when the orthogonal selection
	// comes up short the group stays small — that scarcity is the
	// weakness of the naive choice that Fig. 4 demonstrates.
	sort.Ints(out)
	return out
}

func complement(n int, set []int) []int {
	in := make([]bool, n)
	for _, v := range set {
		in[v] = true
	}
	var out []int
	for i := 0; i < n; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}
