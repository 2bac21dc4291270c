//go:build race

package detect

// raceEnabled reports whether the race detector is compiled in. The
// allocation ceilings skip under it: instrumentation allocates on its
// own, so the counts would measure the detector and the race runtime
// together.
const raceEnabled = true
