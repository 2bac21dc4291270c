package dataset

import (
	"context"
	"errors"
	"fmt"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/loadgen"
	"pmuoutage/internal/par"
	"pmuoutage/internal/powerflow"
)

// GenConfig controls data generation.
type GenConfig struct {
	// Steps is the number of time samples T per scenario. The paper uses
	// a 24-hour window; Steps divides that day.
	Steps int
	// Seed makes the whole pipeline deterministic.
	Seed int64
	// SigmaVm/SigmaVa are the PMU noise levels (p.u. / radians);
	// non-positive values select the loadgen defaults.
	SigmaVm float64 //gridlint:unit pu
	SigmaVa float64 //gridlint:unit rad
	// OU overrides the load process; zero value selects DefaultOU(Steps).
	OU loadgen.OUParams
	// UseDC switches to the linear DC power flow — an order of magnitude
	// faster, used by quick tests and large sweeps. Magnitudes are then
	// flat 1.0 plus noise, so detection must use the angle channel.
	UseDC bool
	// LossFrac is the dispatch margin for system losses (default 2%).
	LossFrac float64
	// MaxIter caps Newton iterations per solve (default 30).
	MaxIter int
	// Workers bounds the scenario-level parallelism of Generate
	// (0 = GOMAXPROCS). Results are byte-identical for every worker
	// count: each scenario derives its own RNG seeds from Seed and the
	// scenario itself, so no random stream is shared across scenarios.
	Workers int
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Steps <= 0 {
		c.Steps = 24
	}
	if c.OU == (loadgen.OUParams{}) {
		c.OU = loadgen.DefaultOU(c.Steps)
	}
	if c.LossFrac <= 0 {
		c.LossFrac = 0.02
	}
	return c
}

// ErrInvalidScenario marks an outage case excluded per §V-A: the line
// removal islands the grid or the power flow fails to converge.
var ErrInvalidScenario = errors.New("dataset: scenario islanded or did not converge")

// GenerateScenario produces the sample set for one scenario on grid g.
// It returns ErrInvalidScenario (wrapped) for islanding/non-convergence.
func GenerateScenario(g *grid.Grid, sc Scenario, cfg GenConfig) (*Set, error) {
	return GenerateScenarioContext(context.Background(), g, sc, cfg)
}

// GenerateScenarioContext is GenerateScenario with cancellation: the
// per-step solve loop stops at the first context error. The work of one
// scenario is inherently sequential (each step warm-starts from the
// last), so there is no Workers option at this level.
//
// Each step scales the loads by the load process's multipliers and
// re-dispatches generation by powerflow.DispatchScale. A DC step then
// solves the scenario's one factor of B′ on per-bus buffers that every
// step reuses, so it copies no grid. An AC step copies the last step's
// solved grid once, as the warm start of its Newton solve.
func GenerateScenarioContext(ctx context.Context, g *grid.Grid, sc Scenario, cfg GenConfig) (*Set, error) {
	cfg = cfg.withDefaults()
	work := g.WithoutLines(sc)
	if !work.Connected() {
		return nil, fmt.Errorf("%w: %s islands %s", ErrInvalidScenario, sc.Key(), g.Name)
	}
	// Seeds derive from the scenario so different cases get independent
	// load noise while the whole pipeline stays reproducible.
	seed := cfg.Seed
	for _, e := range sc {
		seed = seed*1000003 + int64(e) + 1
	}
	proc, err := loadgen.NewProcess(g.N(), cfg.OU, seed)
	if err != nil {
		return nil, err
	}
	noise := loadgen.NewNoiseModel(cfg.SigmaVm, cfg.SigmaVa, seed+1)

	n := work.N()
	pd := make([]float64, n) // this step's active loads
	var (
		dc              *powerflow.DCFactor
		p, angles, flat []float64  // DC: injections, angles, unit magnitudes
		warm            *grid.Grid // AC: the last step's solved state
	)
	if cfg.UseDC {
		// Only loads change between steps, so B′ is factored once for
		// the scenario's topology and every step only back-substitutes.
		if dc, err = powerflow.NewDCFactor(work); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrInvalidScenario, sc.Key(), err)
		}
		p, angles, flat = make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range flat {
			flat[i] = 1
		}
	} else {
		warm = work.Clone()
	}

	set := &Set{Case: sc, Samples: make([]Sample, 0, cfg.Steps)}
	for t := 0; t < cfg.Steps; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mult := proc.Step()
		var load float64
		for i := range pd {
			pd[i] = work.Buses[i].Pd * mult[i]
			load += pd[i]
		}
		scale := powerflow.DispatchScale(work, load, cfg.LossFrac)

		var vm, va []float64
		if dc != nil {
			for i, b := range work.Buses {
				pg := b.Pg
				if b.Type != grid.PQ {
					pg *= scale
				}
				p[i] = pg - pd[i]
			}
			if err := dc.SolveInto(angles, p); err != nil {
				return nil, fmt.Errorf("%w: %s step %d: %v", ErrInvalidScenario, sc.Key(), t, err)
			}
			vm, va = flat, angles
		} else {
			step := warm.Clone()
			for i := range step.Buses {
				b := &step.Buses[i]
				b.Pd = pd[i]
				b.Qd = work.Buses[i].Qd * mult[i]
				if b.Type != grid.PQ {
					b.Pg *= scale
				}
			}
			sol, err := powerflow.SolveAC(step, powerflow.Options{MaxIter: cfg.MaxIter})
			if err != nil {
				// One retry from flat start; warm starts can stray after
				// a big topology change.
				sol, err = powerflow.SolveAC(step, powerflow.Options{FlatStart: true, MaxIter: cfg.MaxIter})
				if err != nil {
					return nil, fmt.Errorf("%w: %s step %d: %v", ErrInvalidScenario, sc.Key(), t, err)
				}
			}
			vm, va = sol.Vm, sol.Va
			// Warm-start the next step from this solution.
			for i := range warm.Buses {
				warm.Buses[i].Vm = vm[i]
				warm.Buses[i].Va = va[i]
			}
		}
		nvm, nva := noise.Perturb(vm, va)
		set.Samples = append(set.Samples, Sample{Vm: nvm, Va: nva})
	}
	return set, nil
}

// Generate runs the full §V-A pipeline: the normal-operation set plus one
// set per valid single-line outage. Lines whose removal islands the grid
// or whose power flow diverges are skipped (E <= |E| in the paper).
func Generate(g *grid.Grid, cfg GenConfig) (*Data, error) {
	return GenerateContext(context.Background(), g, cfg)
}

// GenerateContext is Generate with cancellation and bounded parallelism:
// the per-scenario simulations fan out over cfg.Workers workers. Every
// scenario seeds its own load process and noise model from (Seed,
// scenario), so the assembled Data is byte-identical whatever the worker
// count — including the sequential Workers = 1 order.
func GenerateContext(ctx context.Context, g *grid.Grid, cfg GenConfig) (*Data, error) {
	cfg = cfg.withDefaults()
	normal, err := GenerateScenarioContext(ctx, g, nil, cfg)
	if err != nil {
		return nil, fmt.Errorf("dataset: normal case failed for %s: %w", g.Name, err)
	}
	// One slot per line; invalid scenarios (islanding/divergence) stay
	// nil. Slots are index-exclusive, so the fan-out is data-race-free
	// and the assembly below sees sequential order.
	sets, err := par.Map(ctx, cfg.Workers, g.E(), func(ctx context.Context, e int) (*Set, error) {
		set, err := GenerateScenarioContext(ctx, g, Scenario{grid.Line(e)}, cfg)
		if err != nil {
			if errors.Is(err, ErrInvalidScenario) {
				return nil, nil // skipped per §V-A, not a failure
			}
			return nil, err
		}
		return set, nil
	})
	if err != nil {
		return nil, err
	}
	d := &Data{G: g, Normal: normal, Outages: map[grid.Line]*Set{}}
	for e, set := range sets {
		if set == nil {
			continue
		}
		d.Outages[grid.Line(e)] = set
		d.ValidLines = append(d.ValidLines, grid.Line(e))
	}
	if len(d.ValidLines) == 0 {
		return nil, fmt.Errorf("dataset: no valid outage cases for %s", g.Name)
	}
	return d, nil
}
