//go:build race

package cases

// raceEnabled reports whether the race detector is compiled in. The
// 1000-bus scale tests skip under it: the feasibility loop inside the
// builder solves dozens of AC power flows, and instrumentation turns a
// one-second build into ten, for numerics the 300-bus tests already
// cover.
const raceEnabled = true
