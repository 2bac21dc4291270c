package cases

import (
	"fmt"
	"math/rand"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/powerflow"
)

// SynthConfig controls the deterministic synthetic grid builder used for
// the 57- and 118-bus stand-ins (see DESIGN.md: the offline module cannot
// download the archive files, and the detector is topology-agnostic, so a
// realistic meshed grid of the right size preserves the experiments).
type SynthConfig struct {
	Name     string
	Buses    int
	Branches int // must be >= Buses-1 and <= Buses*(Buses-1)/2
	Regions  int // backbone regions (roughly PDC areas)
	Gens     int // number of PV buses (plus one slack)
	LoadMW   float64
	Seed     int64
}

// Synthetic builds a connected, AC-feasible grid per cfg. The builder is
// deterministic in the seed, and it verifies the base case solves with
// Newton–Raphson, progressively shedding load if a draw is infeasible.
func Synthetic(cfg SynthConfig) (*grid.Grid, error) {
	if cfg.Branches < cfg.Buses-1 {
		return nil, fmt.Errorf("cases: %d branches cannot connect %d buses", cfg.Branches, cfg.Buses)
	}
	maxBr := cfg.Buses * (cfg.Buses - 1) / 2
	if cfg.Branches > maxBr {
		return nil, fmt.Errorf("cases: %d branches exceeds simple-graph limit %d", cfg.Branches, maxBr)
	}
	if cfg.Regions <= 0 {
		cfg.Regions = 1 + cfg.Buses/12
	}
	if cfg.Gens <= 0 {
		cfg.Gens = 1 + cfg.Buses/10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	n := cfg.Buses
	g := &grid.Grid{Name: cfg.Name, BaseMVA: baseMVA}
	g.Buses = make([]grid.Bus, n)
	for i := range g.Buses {
		g.Buses[i] = grid.Bus{ID: i + 1, Type: grid.PQ, Vm: 1, Va: 0}
	}

	// Assign buses to regions contiguously; bus 0 of each region is its hub.
	region := make([]int, n)
	hubs := make([]int, cfg.Regions)
	per := n / cfg.Regions
	for r := 0; r < cfg.Regions; r++ {
		lo := r * per
		hi := lo + per
		if r == cfg.Regions-1 {
			hi = n
		}
		hubs[r] = lo
		for i := lo; i < hi; i++ {
			region[i] = r
		}
	}

	type edge struct{ a, b int }
	have := map[edge]bool{}
	addBranch := func(a, b int) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		e := edge{a, b}
		if have[e] {
			return false
		}
		have[e] = true
		// Electrical parameters drawn to match the embedded IEEE cases:
		// reactance 0.03–0.30 p.u., R/X ratio 0.1–0.35, light charging.
		x := 0.03 + 0.27*rng.Float64()
		r := x * (0.1 + 0.25*rng.Float64())
		var ch float64
		if rng.Float64() < 0.4 {
			ch = 0.05 * rng.Float64()
		}
		g.Branches = append(g.Branches, grid.Branch{
			From: a, To: b, R: r, X: x, B: ch, Status: true,
		})
		return true
	}

	// 1) Local spanning trees: attach each bus to a random earlier bus in
	//    its region (random recursive tree → realistic degree skew).
	for i := 0; i < n; i++ {
		r := region[i]
		if i == hubs[r] {
			continue
		}
		lo := hubs[r]
		parent := lo + rng.Intn(i-lo)
		addBranch(parent, i)
	}
	// 2) Backbone ring across region hubs keeps inter-region transfer
	//    paths redundant, like real transmission backbones.
	for r := 0; r < cfg.Regions; r++ {
		addBranch(hubs[r], hubs[(r+1)%cfg.Regions])
	}
	// 3) Chords up to the branch budget: mostly intra-region shortcuts,
	//    occasionally inter-region ties. The draw guard bounds rejection
	//    sampling on dense graphs; when it trips, fail loudly — an
	//    under-connected grid would silently skew every experiment run
	//    on it.
	const chordGuard = 100000
	for guard := 0; len(g.Branches) < cfg.Branches; guard++ {
		if guard >= chordGuard {
			return nil, fmt.Errorf("cases: chord guard tripped after %d draws with %d of %d branches — refusing to emit an under-connected grid",
				chordGuard, len(g.Branches), cfg.Branches)
		}
		var a, b int
		if rng.Float64() < 0.75 {
			r := rng.Intn(cfg.Regions)
			lo := hubs[r]
			hi := n
			if r < cfg.Regions-1 {
				hi = hubs[r+1]
			}
			if hi-lo < 2 {
				continue
			}
			a = lo + rng.Intn(hi-lo)
			b = lo + rng.Intn(hi-lo)
		} else {
			a = rng.Intn(n)
			b = rng.Intn(n)
		}
		addBranch(a, b)
	}

	// Generators: slack at bus 0 plus cfg.Gens PV buses spread over regions.
	g.Buses[0].Type = grid.Slack
	g.Buses[0].Vm = 1.05
	pv := 0
	for pv < cfg.Gens {
		i := rng.Intn(n)
		if g.Buses[i].Type != grid.PQ {
			continue
		}
		g.Buses[i].Type = grid.PV
		g.Buses[i].Vm = 1.0 + 0.05*rng.Float64()
		pv++
	}
	// Loads on ~75% of PQ buses, lognormal-ish sizes normalised to LoadMW.
	weights := make([]float64, n)
	var wsum float64
	for i := range g.Buses {
		if g.Buses[i].Type == grid.PQ && rng.Float64() < 0.75 {
			w := 0.2 + rng.ExpFloat64()
			weights[i] = w
			wsum += w
		}
	}
	if wsum == 0 { //gridlint:ignore floatcmp wsum is exactly zero iff no load bus was drawn; draws are >= 0.2
		return nil, fmt.Errorf("cases: no load buses drawn")
	}
	for i, w := range weights {
		if w == 0 { //gridlint:ignore floatcmp weights are exactly zero or >= 0.2 by construction
			continue
		}
		pd := cfg.LoadMW * w / wsum / baseMVA
		g.Buses[i].Pd = pd
		g.Buses[i].Qd = pd * (0.2 + 0.3*rng.Float64())
	}
	// Generation shares proportional to random capacities.
	var gsum float64
	gw := make([]float64, n)
	for i := range g.Buses {
		if g.Buses[i].Type == grid.PV {
			gw[i] = 0.5 + rng.Float64()
			gsum += gw[i]
		}
	}
	totalPd := g.TotalLoad()
	for i, w := range gw {
		if w > 0 {
			// PV buses carry ~70% of load; the slack picks up the rest.
			g.Buses[i].Pg = 0.7 * totalPd * w / gsum
		}
	}

	// Feasibility: shed load until the AC base case converges with a
	// healthy voltage profile (real planning cases keep Vm >= ~0.94).
	for attempt := 0; attempt < 12; attempt++ {
		sol, err := powerflow.SolveAC(g, powerflow.Options{FlatStart: true})
		if err == nil {
			minVm := sol.Vm[0]
			for _, vm := range sol.Vm {
				if vm < minVm {
					minVm = vm
				}
			}
			if minVm < 0.93 {
				err = fmt.Errorf("weak voltage %.3f", minVm)
			}
		}
		if err == nil {
			// Store the solved state as the warm start for outage runs.
			for i := range g.Buses {
				g.Buses[i].Vm = sol.Vm[i]
				g.Buses[i].Va = sol.Va[i]
			}
			return g, nil
		}
		for i := range g.Buses {
			g.Buses[i].Pd *= 0.8
			g.Buses[i].Qd *= 0.7 // reactive stress drives the weak voltages
			g.Buses[i].Pg *= 0.8
		}
	}
	return nil, fmt.Errorf("cases: synthetic grid %q infeasible after load shedding", cfg.Name)
}

// The synthetic cases' configurations. Each is fixed, so every process
// builds the same grids.
var (
	ieee57Config = SynthConfig{
		Name: "ieee57", Buses: 57, Branches: 80,
		Regions: 4, Gens: 6, LoadMW: 1250, Seed: 57,
	}
	ieee118Config = SynthConfig{
		Name: "ieee118", Buses: 118, Branches: 186,
		Regions: 8, Gens: 18, LoadMW: 4240, Seed: 118,
	}
	synth300Config = SynthConfig{
		Name: "synth300", Buses: 300, Branches: 475,
		Regions: 20, Gens: 46, LoadMW: 10800, Seed: 300,
	}
	synth1000Config = SynthConfig{
		Name: "synth1000", Buses: 1000, Branches: 1580,
		Regions: 66, Gens: 150, LoadMW: 36000, Seed: 1000,
	}
)

// buildSynthetic returns the build of one registered synthetic case.
func buildSynthetic(cfg SynthConfig) func() *grid.Grid {
	return func() *grid.Grid {
		g, err := Synthetic(cfg)
		if err != nil {
			panic(err) // deterministic build; failure is a programming error
		}
		return g
	}
}

// IEEE57 returns the 57-bus stand-in: 57 buses, 80 branches (the paper's
// "80 power lines available for outage evaluation").
func IEEE57() *grid.Grid { return ieee57() }

// IEEE118 returns the 118-bus stand-in: 118 buses, 186 branches (the
// paper's "186 power lines available for outage evaluation").
func IEEE118() *grid.Grid { return ieee118() }

// Synth300 returns a 300-bus synthetic system scaled from the 118-bus
// stand-in's density (≈1.6 branches and ≈36 MW of load per bus, one PV
// bus per ~6.5). It is the smallest grid that exercises the sparse
// powerflow path (≥ powerflow.SparseBusThreshold buses) end to end.
func Synth300() *grid.Grid { return synth300() }

// Synth1000 returns a 1000-bus synthetic system at the same density,
// the scaling target of the sparse numerics core (ROADMAP: "bigger
// grids, faster math").
func Synth1000() *grid.Grid { return synth1000() }
