package subspace

// onesPass is onesPassGeneric in SSE2 assembly, two rank-one slots per
// instruction and an odd last slot in the scalar forms, with the same
// bits; packed_amd64.s says why each lane takes normStep's branch.
//
//go:noescape
func onesPass(scale, ssq, alpha, x, basis []float64, stride int)
