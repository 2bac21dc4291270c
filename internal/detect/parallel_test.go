package detect

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/pmunet"
)

// trainFixture regenerates the exact configuration the pre-refactor
// golden values below were captured on: IEEE-14, DC, 20 steps, seed 1,
// 3 PDC clusters, default detector config.
func trainFixture(t testing.TB, workers int) (*Detector, *dataset.Data) {
	t.Helper()
	g := cases.IEEE14()
	d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := pmunet.Build(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	det, err := TrainContext(context.Background(), d, nw, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return det, d
}

func TestTrainWorkersEquivalence(t *testing.T) {
	seq, _ := trainFixture(t, 1)
	for _, workers := range []int{0, 8} {
		parl, _ := trainFixture(t, workers)
		// Worker count is config, not learned state; align it before the
		// deep compare so only the learned fields are under test.
		parl.cfg.Workers = seq.cfg.Workers
		if !reflect.DeepEqual(seq, parl) {
			t.Fatalf("workers=%d: trained detector differs from sequential", workers)
		}
	}
}

// TestTrainGoldenFingerprint pins training and detection to the
// pre-parallel (PR 1) outputs: the calibrated threshold bit pattern and
// a hash over the detection results of every valid line's first sample.
func TestTrainGoldenFingerprint(t *testing.T) {
	for _, workers := range []int{1, 8} {
		det, d := trainFixture(t, workers)
		if got := fmt.Sprintf("%x", math.Float64bits(det.NoOutageThreshold())); got != "3ec54314c9b68569" {
			t.Errorf("workers=%d: threshold bits %s, want pre-refactor 3ec54314c9b68569", workers, got)
		}
		h := sha256.New()
		for _, e := range d.ValidLines {
			r, err := det.Detect(d.Outages[e].Samples[0])
			if err != nil {
				t.Fatal(err)
			}
			hashResult(h, r)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != "59484bc947acc56a" {
			t.Errorf("workers=%d: detection fingerprint %s, want pre-refactor 59484bc947acc56a", workers, got)
		}
	}
}

// TestMaskedDetectGoldenFingerprint pins detection under missing data,
// which TestTrainGoldenFingerprint (complete samples only) leaves
// unpinned: every valid line's first outage sample under each
// single-bus mask and each whole-cluster-dark mask. The pinned hash was
// captured before detection groups were factored per PDC cluster.
func TestMaskedDetectGoldenFingerprint(t *testing.T) {
	det, d := trainFixture(t, 1)
	nw := det.Network()
	var masks []pmunet.Mask
	for b := 0; b < det.Grid().N(); b++ {
		m := pmunet.NoneMissing(det.Grid().N())
		m[b] = true
		masks = append(masks, m)
	}
	for c := 0; c < nw.NumClusters(); c++ {
		masks = append(masks, nw.ClusterMask(c))
	}
	h := sha256.New()
	for _, e := range d.ValidLines {
		for _, m := range masks {
			r, err := det.Detect(d.Outages[e].Samples[0].WithMask(m))
			if err != nil {
				t.Fatal(err)
			}
			hashResult(h, r)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != "af9f6411ccfe7cb0" {
		t.Errorf("masked detection fingerprint %s, want af9f6411ccfe7cb0", got)
	}
}

// hashResult feeds the bits of a result's lines, node scores and
// deviation energy to h.
func hashResult(h io.Writer, r *Result) {
	for _, l := range r.Lines {
		binary.Write(h, binary.LittleEndian, int64(l))
	}
	for _, s := range r.NodeScores {
		binary.Write(h, binary.LittleEndian, math.Float64bits(s))
	}
	binary.Write(h, binary.LittleEndian, math.Float64bits(r.DeviationEnergy))
}

func TestTrainContextCancelled(t *testing.T) {
	g := cases.IEEE14()
	d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 8, Seed: 1, UseDC: true})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := pmunet.Build(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainContext(ctx, d, nw, Config{}); err == nil {
		t.Fatal("cancelled context must abort training")
	}
}
