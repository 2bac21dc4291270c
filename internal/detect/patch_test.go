package detect

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/pmunet"
)

// patchFixture trains the golden fixture, then regenerates two lines'
// outage sets with a different seed — the "fresh observations" a patch
// ingests — and returns everything both the patch path and the
// full-retrain reference need.
func patchFixture(t testing.TB) (base *Model, d *dataset.Data, refreshed map[grid.Line]*dataset.Set) {
	t.Helper()
	_, base, d = snapshotFixture(t)
	refreshed = map[grid.Line]*dataset.Set{}
	for _, e := range []grid.Line{d.ValidLines[1], d.ValidLines[4]} {
		set, err := dataset.GenerateScenarioContext(context.Background(), d.G, dataset.Scenario{e},
			dataset.GenConfig{Steps: 20, Seed: 77, UseDC: true})
		if err != nil {
			t.Fatal(err)
		}
		refreshed[e] = set
	}
	return base, d, refreshed
}

// TestPatchEquivalentToFullRetrain is the patch guarantee: applying
// TrainPatch's artifact to the base model must reproduce the model a
// full retrain on the swapped dataset produces — same fingerprint, and
// detection outputs within a pinned tolerance of zero difference.
func TestPatchEquivalentToFullRetrain(t *testing.T) {
	base, d, refreshed := patchFixture(t)

	p, err := TrainPatch(context.Background(), base, d.Normal, refreshed)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := p.Apply(base)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: retrain from scratch on the dataset with the two
	// refreshed sets swapped in.
	swapped := &dataset.Data{G: d.G, Normal: d.Normal, ValidLines: d.ValidLines,
		Outages: map[grid.Line]*dataset.Set{}}
	for e, set := range d.Outages {
		swapped.Outages[e] = set
	}
	for e, set := range refreshed {
		swapped.Outages[e] = set
	}
	nw, err := pmunet.FromClusters(d.G, base.Clusters)
	if err != nil {
		t.Fatal(err)
	}
	full, err := TrainContext(context.Background(), swapped, nw, base.Config)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if patched.Fingerprint != want.Fingerprint {
		t.Errorf("patched model fingerprint %.12s differs from full retrain %.12s",
			patched.Fingerprint, want.Fingerprint)
	}

	// Decision-level equivalence, tolerance-pinned: every sample of the
	// swapped dataset must classify and localise identically, with node
	// scores agreeing to within 1e-12.
	pd, err := FromModel(patched)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range d.ValidLines {
		for _, s := range []dataset.Sample{swapped.Outages[e].Samples[0], d.Normal.Samples[0]} {
			rp, err := pd.Detect(s)
			if err != nil {
				t.Fatal(err)
			}
			rf, err := full.Detect(s)
			if err != nil {
				t.Fatal(err)
			}
			if rp.Outage != rf.Outage || len(rp.Lines) != len(rf.Lines) {
				t.Fatalf("line %d: patched decision (%v %v) != retrain (%v %v)",
					e, rp.Outage, rp.Lines, rf.Outage, rf.Lines)
			}
			for k := range rp.Lines {
				if rp.Lines[k] != rf.Lines[k] {
					t.Fatalf("line %d: localisation differs: %v vs %v", e, rp.Lines, rf.Lines)
				}
			}
			for i := range rp.NodeScores {
				dp, df := rp.NodeScores[i], rf.NodeScores[i]
				if math.IsInf(dp, 1) && math.IsInf(df, 1) {
					continue
				}
				if math.Abs(dp-df) > 1e-12 {
					t.Fatalf("line %d node %d: score %g vs %g", e, i, dp, df)
				}
			}
		}
	}
}

// TestPatchRoundTripAndGuards covers the patch codec and its refusal
// paths: round-trip through Encode/DecodePatch, wrong-base refusal,
// tampered-content refusal, and foreign-version refusal.
func TestPatchRoundTripAndGuards(t *testing.T) {
	base, d, refreshed := patchFixture(t)
	p, err := TrainPatch(context.Background(), base, d.Normal, refreshed)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	artifact := buf.String()
	p2, err := DecodePatch(strings.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := p.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := p2.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Fingerprint != m2.Fingerprint {
		t.Fatal("decoded patch applies differently from the in-memory patch")
	}

	t.Run("wrong base", func(t *testing.T) {
		other := *base
		other.NoOutageThreshold *= 2
		if err := other.Seal(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Apply(&other); !errors.Is(err, ErrPatchBase) {
			t.Fatalf("got %v, want ErrPatchBase", err)
		}
	})
	t.Run("tampered", func(t *testing.T) {
		bad := strings.Replace(artifact, `"lines":[`, `"lines":[0,`, 1)
		if bad == artifact {
			t.Fatal("tamper target not found")
		}
		if _, err := DecodePatch(strings.NewReader(bad)); !errors.Is(err, ErrPatchCorrupt) {
			t.Fatalf("got %v, want ErrPatchCorrupt", err)
		}
	})
	t.Run("foreign version", func(t *testing.T) {
		for _, v := range []int{PatchVersion - 1, 9} {
			bad := strings.Replace(artifact, fmt.Sprintf(`"format_version":%d`, PatchVersion), fmt.Sprintf(`"format_version":%d`, v), 1)
			if bad == artifact {
				t.Fatal("tamper target not found")
			}
			if _, err := DecodePatch(strings.NewReader(bad)); !errors.Is(err, ErrPatchVersion) {
				t.Fatalf("version %d: got %v, want ErrPatchVersion", v, err)
			}
		}
	})
	t.Run("one intersection basis short", func(t *testing.T) {
		short, err := DecodePatch(bytes.NewReader(shortPatch(t, p)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := short.Apply(base); !errors.Is(err, ErrPatchCorrupt) {
			t.Fatalf("got %v, want ErrPatchCorrupt", err)
		}
	})
	t.Run("unknown line", func(t *testing.T) {
		badLine := map[grid.Line]*dataset.Set{grid.Line(d.G.E() + 3): refreshed[d.ValidLines[1]]}
		if _, err := TrainPatch(context.Background(), base, d.Normal, badLine); err == nil {
			t.Fatal("patching an unknown line must fail")
		}
	})
}

// shortPatch re-stamps p with its last intersection basis dropped, as a
// forger would: the artifact is self-consistent, but carries one
// intersection basis fewer than its lines have endpoints.
func shortPatch(t testing.TB, p *Patch) []byte {
	t.Helper()
	short := *p
	short.InterBases = p.InterBases[:len(p.InterBases)-1]
	var buf bytes.Buffer
	if err := short.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodePatch feeds hostile artifacts to the patch codec and
// applier, against the ieee14 base the seed patch was trained on.
// Decoding and applying must never panic, and a patch that applies must
// give a model that boots through FromModel and detects a normal, an
// outage and a cluster-dark sample without panicking. Nearly every
// mutation breaks a fingerprint, so an input that parses is also
// re-stamped, as a forger would: its base fingerprint set to the base's,
// its result fingerprint to whatever the spliced model hashes to, and
// its own fingerprint resealed by Encode. That takes the fuzzer past the
// hashes to checkShape and the model's validate.
func FuzzDecodePatch(f *testing.F) {
	base, d, refreshed := patchFixture(f)
	p, err := TrainPatch(context.Background(), base, d.Normal, refreshed)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add(shortPatch(f, p))
	normal := d.Normal.Samples[0]
	outage := d.Outages[d.ValidLines[0]].Samples[0]
	apply := func(t *testing.T, artifact []byte) {
		p, err := DecodePatch(bytes.NewReader(artifact))
		if err != nil {
			return
		}
		m, err := p.Apply(base)
		if err != nil {
			return
		}
		det, err := FromModel(m)
		if err != nil {
			t.Fatalf("applied patch does not boot: %v", err)
		}
		for _, s := range []dataset.Sample{normal, outage, outage.WithMask(det.Network().ClusterMask(0))} {
			_, _ = det.Detect(s) // an error is an answer; only a panic fails
		}
	}
	f.Fuzz(func(t *testing.T, artifact []byte) {
		apply(t, artifact)
		var p Patch
		if json.Unmarshal(artifact, &p) != nil {
			return
		}
		p.BaseFingerprint = base.Fingerprint
		if m, err := p.patchedModel(base); err == nil {
			p.ResultFingerprint = m.Fingerprint
		}
		var buf bytes.Buffer
		if p.Encode(&buf) == nil {
			apply(t, buf.Bytes())
		}
	})
}
