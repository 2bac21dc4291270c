package pmuoutage

import "testing"

// TestModelGoldenFingerprint pins the fingerprint of a facade-trained
// model over the whole pipeline: DC data generation, clustering and
// detector training. ieee30 trains at the benchmark's options; ieee118
// trains on a shorter window so the race-instrumented suite stays
// bounded. The hashes were captured while every DC load step still
// rebuilt and refactored B′.
func TestModelGoldenFingerprint(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{Case: "ieee30", UseDC: true, Workers: 2}, "96930c39cc543c9f98cf64647b68b47daa79470b493f19ff2dfc062c7c257121"},
		{Options{Case: "ieee118", TrainSteps: 12, UseDC: true, Workers: 2}, "27314aa663f9a3049d0949f907016ad84abcbda351c7a71a8ecfd4b707c420cf"},
	} {
		t.Run(tc.opts.Case, func(t *testing.T) {
			m, err := TrainModel(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Fingerprint(); got != tc.want {
				t.Errorf("%s model fingerprint %s, want %s", tc.opts.Case, got, tc.want)
			}
		})
	}
}
