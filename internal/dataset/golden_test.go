package dataset_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
)

// TestDCGenerateGoldenFingerprint pins the bits of DC training data on
// both sides of powerflow.SparseBusThreshold: the four IEEE grids take
// the dense linear solve, synth300 the sparse one. The hashes were
// captured while every load step still rebuilt and refactored B′, so
// they pin the per-scenario factor to the per-step solves it replaced.
func TestDCGenerateGoldenFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps int
		want  string
	}{
		{"ieee14", 40, "9bae19c22959a483"},
		{"ieee30", 40, "5aaca70e071d953d"},
		{"ieee57", 40, "ca4a2184afcad49a"},
		{"ieee118", 40, "6a004934a244feab"},
		{"synth300", 8, "6a0d661942c9a133"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "synth300" {
				t.Skip("synth300 build in -short")
			}
			g, err := cases.Load(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: tc.steps, Seed: 7, UseDC: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := dcFingerprint(d); got != tc.want {
				t.Errorf("%s DC dataset fingerprint %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

// dcFingerprint hashes the valid lines as int64 LE, then the normal
// set's samples, then each valid line's samples, each sample as
// Vm[i], Va[i] float64 bits LE per bus; it returns the first 8 bytes.
func dcFingerprint(d *dataset.Data) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	add := func(set *dataset.Set) {
		for _, s := range set.Samples {
			for i := range s.Vm {
				put(math.Float64bits(s.Vm[i]))
				put(math.Float64bits(s.Va[i]))
			}
		}
	}
	for _, e := range d.ValidLines {
		put(uint64(int64(e)))
	}
	add(d.Normal)
	for _, e := range d.ValidLines {
		add(d.Outages[e])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
