package cases

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"pmuoutage/internal/grid"
)

// Builder constructs a test system.
type Builder func() *grid.Grid

// cached returns a Builder that runs build once per process, on its
// first call, and hands every caller a Clone of that grid: a caller may
// change its copy freely, and no caller pays for the build again. The
// synthetic builds are the reason: their AC feasibility loop runs
// several flat-start Newton solves.
func cached(build func() *grid.Grid) Builder {
	shared := sync.OnceValue(build)
	return func() *grid.Grid { return shared().Clone() }
}

// Every registered case builds once per process.
var (
	ieee14    = cached(buildIEEE14)
	ieee30    = cached(buildIEEE30)
	ieee57    = cached(buildSynthetic(ieee57Config))
	ieee118   = cached(buildSynthetic(ieee118Config))
	synth300  = cached(buildSynthetic(synth300Config))
	synth1000 = cached(buildSynthetic(synth1000Config))
)

var registry = map[string]Builder{
	"ieee14":    IEEE14,
	"ieee30":    IEEE30,
	"ieee57":    IEEE57,
	"ieee118":   IEEE118,
	"synth300":  Synth300,
	"synth1000": Synth1000,
}

// Names returns the registered case names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Load returns a copy of the named test system, or an error listing
// the available names. The system builds on the process's first Load
// or builder call for it; every later call only clones that build.
func Load(name string) (*grid.Grid, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("cases: unknown system %q (available: %v)", name, Names())
	}
	return b(), nil
}

// paperNames is the paper's evaluation set: the four IEEE systems,
// smallest first. The scale grids (synth300, synth1000) are loadable
// by name but deliberately excluded: experiment sweeps iterate this
// set, and the scale grids belong to the benchmark/scaling harness.
var paperNames = []string{"ieee14", "ieee30", "ieee57", "ieee118"}

// PaperNames returns the names of the paper's evaluation set, the four
// IEEE systems, smallest first.
func PaperNames() []string { return slices.Clone(paperNames) }
