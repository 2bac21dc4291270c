//go:build !race

package detect

// raceEnabled reports whether the race detector is compiled in; see
// race_on_test.go for why the allocation test consults it.
const raceEnabled = false
