package subspace

// SetAVX turns the AVX kernels on or off for the package's external
// tests and returns the previous setting.
func SetAVX(on bool) (was bool) {
	was, useAVX = useAVX, on
	return was
}
