package detect

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/pmunet"
)

// ablationConfigs are the detector configurations the ablation golden
// pins. Beyond the default they reach the paths the default leaves
// unpinned: line subspaces and S_i^∩ of rank above one, a wider S⁰,
// the regressor and unscaled proximities, the magnitude and stacked
// channels, and PCA-mixed detection groups.
var ablationConfigs = []struct {
	name string
	cfg  Config
}{
	{"default", Config{}},
	{"regressor", Config{UseRegressorProximity: true}},
	{"no-scaling", Config{DisableScaling: true}},
	{"stacked", Config{Channel: dataset.Stacked}},
	{"magnitude", Config{Channel: dataset.Magnitude}},
	{"line-rank-2", Config{LineRank: 2}},
	{"line-rank-3", Config{LineRank: 3, InterShare: 0.3}},
	{"s0-rank-6", Config{S0Rank: 6, S0EnergyFrac: 0.01}},
	{"mix-0.5", Config{Groups: GroupConfig{Mix: 0.5}}},
}

// TestAblationGoldenFingerprint pins Detect under every ablation
// config on ieee14 and ieee30 (DC, 20 steps, seed 1, max(3, N/10) PDC
// clusters): two hashes per grid and config over every valid line's
// first outage sample, complete, under each single-bus mask and with
// each cluster dark. The first, over hashResult, was captured before
// each cluster's subspaces were packed for one residual pass. The
// second, over each result's length-prefixed Candidates, which
// hashResult leaves out, was captured before the proximity rule's sort
// gave way to a heap.
func TestAblationGoldenFingerprint(t *testing.T) {
	want := map[string]string{
		"ieee14/default":     "d4b1bb60b6cf2610",
		"ieee14/regressor":   "3f53a75a172f2162",
		"ieee14/no-scaling":  "06298400b6ba687b",
		"ieee14/stacked":     "f8a57f3e1cabd78f",
		"ieee14/magnitude":   "3ff3ac64522ea9bf",
		"ieee14/line-rank-2": "40a92b4294987d5a",
		"ieee14/line-rank-3": "c1fb54b7f8e91609",
		"ieee14/s0-rank-6":   "60b9629c0fbb0848",
		"ieee14/mix-0.5":     "ec059189e3b6533c",
		"ieee30/default":     "8f1ba2281242cf34",
		"ieee30/regressor":   "ac28e6e8cc73b18f",
		"ieee30/no-scaling":  "53920abd820f0448",
		"ieee30/stacked":     "617b251839783931",
		"ieee30/magnitude":   "b4b2dce09a0de356",
		"ieee30/line-rank-2": "cc690264ad70223b",
		"ieee30/line-rank-3": "09395c05da9bc041",
		"ieee30/s0-rank-6":   "58f41711001037aa",
		"ieee30/mix-0.5":     "12c0a5b15dfbdd40",
	}
	wantCandidates := map[string]string{
		"ieee14/default":     "452a011f74def375",
		"ieee14/regressor":   "dda72f48d16c3a47",
		"ieee14/no-scaling":  "7b9a518ad2d7dbc8",
		"ieee14/stacked":     "1c349e32f7c35695",
		"ieee14/magnitude":   "9120cb2dbce55f2a",
		"ieee14/line-rank-2": "6a133640042ab124",
		"ieee14/line-rank-3": "9631abce04fa7f70",
		"ieee14/s0-rank-6":   "8920b698b578a0bd",
		"ieee14/mix-0.5":     "cd8c7f0f7a3b43ed",
		"ieee30/default":     "3fae3826da7aa14c",
		"ieee30/regressor":   "68591e205f4ecc57",
		"ieee30/no-scaling":  "0568656f4d347ae0",
		"ieee30/stacked":     "6b698fc6a079c360",
		"ieee30/magnitude":   "b636bf1616994072",
		"ieee30/line-rank-2": "7f92934aea781d65",
		"ieee30/line-rank-3": "944b6b3a89a53623",
		"ieee30/s0-rank-6":   "49e0f663c35602d2",
		"ieee30/mix-0.5":     "45ebcb84d341e94e",
	}
	for _, name := range []string{"ieee14", "ieee30"} {
		d, nw := gridFixture(t, name)
		g := d.G
		masks := []pmunet.Mask{nil}
		for b := 0; b < g.N(); b++ {
			m := pmunet.NoneMissing(g.N())
			m[b] = true
			masks = append(masks, m)
		}
		for c := 0; c < nw.NumClusters(); c++ {
			masks = append(masks, nw.ClusterMask(c))
		}
		for _, ac := range ablationConfigs {
			key := name + "/" + ac.name
			t.Run(key, func(t *testing.T) {
				det, err := TrainContext(context.Background(), d, nw, ac.cfg)
				if err != nil {
					t.Fatal(err)
				}
				h, hc := sha256.New(), sha256.New()
				for _, e := range d.ValidLines {
					s := d.Outages[e].Samples[0]
					for _, m := range masks {
						v := s
						if m != nil {
							v = s.WithMask(m)
						}
						r, err := det.Detect(v)
						if err != nil {
							t.Fatal(err)
						}
						hashResult(h, r)
						binary.Write(hc, binary.LittleEndian, int64(len(r.Candidates)))
						for _, c := range r.Candidates {
							binary.Write(hc, binary.LittleEndian, int64(c))
						}
					}
				}
				if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want[key] {
					t.Errorf("%s detection fingerprint %s, want %s", key, got, want[key])
				}
				if got := fmt.Sprintf("%x", hc.Sum(nil)[:8]); got != wantCandidates[key] {
					t.Errorf("%s candidate fingerprint %s, want %s", key, got, wantCandidates[key])
				}
			})
		}
	}
}
