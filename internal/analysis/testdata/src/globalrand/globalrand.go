// Package globalrand is golden-test input for the globalrand analyzer.
package globalrand

import "math/rand"

func draw() float64 {
	x := rand.Float64()                        // want `rand.Float64 uses the global math/rand generator`
	r := rand.New(rand.NewSource(1))           // constructors are the fix, not a finding
	return x + r.Float64() + rand.ExpFloat64() // want `rand.ExpFloat64 uses the global math/rand generator`
}
