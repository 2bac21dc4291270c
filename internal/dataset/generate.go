package dataset

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/loadgen"
	"pmuoutage/internal/par"
	"pmuoutage/internal/powerflow"
)

// GenConfig controls data generation.
type GenConfig struct {
	// Steps is the number of time samples T per scenario. The paper uses
	// a 24-hour window; Steps divides that day, and the load process is
	// loadgen.DefaultOU(Steps).
	Steps int
	// Seed makes the whole pipeline deterministic.
	Seed int64
	// SigmaVm/SigmaVa are the PMU noise levels (p.u. / radians);
	// non-positive values select the loadgen defaults.
	SigmaVm float64 //gridlint:unit pu
	SigmaVa float64 //gridlint:unit rad
	// UseDC switches to the linear DC power flow — an order of magnitude
	// faster, used by quick tests and large sweeps. Magnitudes are then
	// flat 1.0 plus noise, so detection must use the angle channel.
	UseDC bool
	// Workers bounds the scenario-level parallelism of GenerateContext
	// (0 = GOMAXPROCS). Results are byte-identical for every worker
	// count: each scenario derives its own RNG seeds from Seed and the
	// scenario itself, so no random stream is shared across scenarios.
	Workers int
}

// lossFrac is the dispatch margin for system losses: each step's
// generation covers its load plus 2%.
const lossFrac = 0.02

func (c GenConfig) withDefaults() GenConfig {
	if c.Steps <= 0 {
		c.Steps = 24
	}
	return c
}

// ErrInvalidScenario marks an outage case excluded per §V-A: the line
// removal islands the grid or the power flow fails to converge.
var ErrInvalidScenario = errors.New("dataset: scenario islanded or did not converge")

// GenerateScenarioContext produces the sample set for one scenario on
// grid g. It returns ErrInvalidScenario (wrapped) for islanding or
// non-convergence, and stops at the first context error between steps.
// Each step of an AC scenario warm-starts from the last, so there is no
// Workers option at this level.
//
// Each step scales the loads by the load process's multipliers and
// re-dispatches generation by powerflow.DispatchScale. A DC scenario
// builds every step's injections, solves all the steps in one
// DCFactor.SolveSteps on the scenario's one factor of B′, and then
// perturbs the steps in order, so it copies no grid. The load process
// and the noise model draw from separate seeds, so this order keeps
// both streams' draws. An AC step copies the last step's solved grid
// once, as the warm start of its Newton solve.
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
	proc, err := loadgen.NewProcess(g.N(), loadgen.DefaultOU(cfg.Steps), seed)
	if err != nil {
		return nil, err
	}
	noise := loadgen.NewNoiseModel(cfg.SigmaVm, cfg.SigmaVa, seed+1)
	set := &Set{Case: sc, Samples: make([]Sample, 0, cfg.Steps)}
	if cfg.UseDC {
		err = generateDC(ctx, work, sc, cfg, proc, noise, set)
	} else {
		err = generateAC(ctx, work, sc, cfg, proc, noise, set)
	}
	if err != nil {
		return nil, err
	}
	return set, nil
}

// stepLoads writes into pd the active loads of work scaled by one
// step's multipliers and returns the step's generator scale.
func stepLoads(work *grid.Grid, mult, pd []float64) float64 {
	var load float64
	for i := range pd {
		pd[i] = work.Buses[i].Pd * mult[i]
		load += pd[i]
	}
	return powerflow.DispatchScale(work, load, lossFrac)
}

// dcWork is the storage of one DC scenario besides its samples: the
// factor of B′, one step's load multipliers and loads, every step's
// injections and angles, and the flat magnitudes. Scenarios take it
// from dcWorkPool and put it back, so a generation reuses it from one
// scenario to the next instead of allocating it per scenario.
type dcWork struct {
	dc              powerflow.DCFactor
	mult, pd, p, va []float64
	flat            []float64 // all ones
}

var dcWorkPool = sync.Pool{New: func() any { return new(dcWork) }}

// resize returns buf with length n, reusing its storage when it holds
// n elements, for a caller that overwrites every element.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// generateDC appends cfg.Steps DC samples of work to set. Only loads
// change between steps, so B′ is factored once for the scenario's
// topology and the steps only back-substitute, all in one call.
func generateDC(ctx context.Context, work *grid.Grid, sc Scenario, cfg GenConfig, proc *loadgen.Process, noise *loadgen.NoiseModel, set *Set) error {
	w := dcWorkPool.Get().(*dcWork)
	defer dcWorkPool.Put(w)
	if err := w.dc.Refactor(work); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrInvalidScenario, sc.Key(), err)
	}
	n := work.N()
	w.mult, w.pd = resize(w.mult, n), resize(w.pd, n)
	w.p, w.va = resize(w.p, cfg.Steps*n), resize(w.va, cfg.Steps*n) // step t at [t*n : (t+1)*n]
	for t := 0; t < cfg.Steps; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		proc.StepInto(w.mult)
		scale := stepLoads(work, w.mult, w.pd)
		pt := w.p[t*n : (t+1)*n]
		for i, b := range work.Buses {
			pg := b.Pg
			if b.Type != grid.PQ {
				pg *= scale
			}
			pt[i] = pg - w.pd[i]
		}
	}
	if err := w.dc.SolveSteps(w.va, w.p); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrInvalidScenario, sc.Key(), err)
	}
	if len(w.flat) != n {
		w.flat = resize(w.flat, n)
		for i := range w.flat {
			w.flat[i] = 1
		}
	}
	for t := 0; t < cfg.Steps; t++ {
		vm, va := noise.Perturb(w.flat, w.va[t*n:(t+1)*n])
		set.Samples = append(set.Samples, Sample{Vm: vm, Va: va})
	}
	return nil
}

// generateAC appends cfg.Steps AC samples of work to set, each step's
// Newton solve warm-started from the last step's solution.
func generateAC(ctx context.Context, work *grid.Grid, sc Scenario, cfg GenConfig, proc *loadgen.Process, noise *loadgen.NoiseModel, set *Set) error {
	pd := make([]float64, work.N())
	warm := work.Clone()
	for t := 0; t < cfg.Steps; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		mult := proc.Step()
		scale := stepLoads(work, mult, pd)
		step := warm.Clone()
		for i := range step.Buses {
			b := &step.Buses[i]
			b.Pd = pd[i]
			b.Qd = work.Buses[i].Qd * mult[i]
			if b.Type != grid.PQ {
				b.Pg *= scale
			}
		}
		sol, err := powerflow.SolveAC(step, powerflow.Options{})
		if err != nil {
			// One retry from flat start; warm starts can stray after
			// a big topology change.
			sol, err = powerflow.SolveAC(step, powerflow.Options{FlatStart: true})
			if err != nil {
				return fmt.Errorf("%w: %s step %d: %v", ErrInvalidScenario, sc.Key(), t, err)
			}
		}
		// Warm-start the next step from this solution.
		for i := range warm.Buses {
			warm.Buses[i].Vm = sol.Vm[i]
			warm.Buses[i].Va = sol.Va[i]
		}
		vm, va := noise.Perturb(sol.Vm, sol.Va)
		set.Samples = append(set.Samples, Sample{Vm: vm, Va: va})
	}
	return nil
}

// GenerateContext runs the full §V-A pipeline: the normal-operation set
// plus one set per valid single-line outage. Lines whose removal
// islands the grid or whose power flow diverges are skipped (E <= |E|
// in the paper). The per-scenario simulations fan out over cfg.Workers
// workers. Every scenario seeds its own load process and noise model
// from (Seed, scenario), so the assembled Data is byte-identical
// whatever the worker count — including the sequential Workers = 1
// order.
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
