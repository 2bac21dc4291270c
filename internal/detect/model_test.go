package detect

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pmuoutage/internal/dataset"
)

// snapshotFixture trains the golden fixture and snapshots it.
func snapshotFixture(t testing.TB) (*Detector, *Model, *dataset.Data) {
	t.Helper()
	det, d := trainFixture(t, 0)
	m, err := det.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return det, m, d
}

// detectAll runs the detector over the first sample of every valid line
// plus one normal sample and returns the results.
func detectAll(t *testing.T, det *Detector, d *dataset.Data) []*Result {
	t.Helper()
	var out []*Result
	samples := []dataset.Sample{d.Normal.Samples[0]}
	for _, e := range d.ValidLines {
		samples = append(samples, d.Outages[e].Samples[0])
	}
	for _, s := range samples {
		r, err := det.Detect(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// TestModelRoundTripDetectsIdentically is the golden guarantee of the
// artifact layer: Decode(Encode(Snapshot(det))) must detect
// byte-identically to the trained detector, and a second encode of the
// decoded model must reproduce the artifact bytes exactly.
func TestModelRoundTripDetectsIdentically(t *testing.T) {
	det, m, d := snapshotFixture(t)

	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	artifact := append([]byte(nil), buf.Bytes()...)

	m2, err := DecodeModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Fingerprint != m.Fingerprint {
		t.Fatalf("fingerprint changed over the wire: %s vs %s", m2.Fingerprint, m.Fingerprint)
	}
	det2, err := FromModel(m2)
	if err != nil {
		t.Fatal(err)
	}
	want := detectAll(t, det, d)
	got := detectAll(t, det2, d)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decoded model detects differently from the trained detector")
	}

	var buf2 bytes.Buffer
	if err := m2.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), artifact) {
		t.Fatal("re-encoding a decoded model does not reproduce the artifact bytes")
	}
}

// TestModelFromModelSharesBehavior checks the in-memory path (no codec):
// FromModel(Snapshot(det)) equals det in behavior and in learned state.
func TestModelFromModelSharesBehavior(t *testing.T) {
	det, m, d := snapshotFixture(t)
	det2, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if det2.NoOutageThreshold() != det.NoOutageThreshold() { //gridlint:ignore floatcmp byte-identity is the contract under test
		t.Fatal("threshold changed through Snapshot/FromModel")
	}
	if !reflect.DeepEqual(detectAll(t, det2, d), detectAll(t, det, d)) {
		t.Fatal("FromModel detector behaves differently")
	}
}

// TestModelWorkersEquivalence pins training determinism at the artifact
// level: any worker count must produce the same fingerprint once the
// config's Workers knob (runtime, not learned state) is aligned.
func TestModelWorkersEquivalence(t *testing.T) {
	base, _ := trainFixture(t, 1)
	bm, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 8} {
		det, _ := trainFixture(t, workers)
		m, err := det.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		m.Config.Workers = bm.Config.Workers
		if err := m.Seal(); err != nil {
			t.Fatal(err)
		}
		if m.Fingerprint != bm.Fingerprint {
			t.Fatalf("workers=%d: model fingerprint %s differs from sequential %s",
				workers, m.Fingerprint, bm.Fingerprint)
		}
	}
}

// TestDecodeModelVersionMismatch: artifacts from another format version
// are rejected with ErrModelVersion, not half-read. The previous
// version gets no compatibility read either.
func TestDecodeModelVersionMismatch(t *testing.T) {
	_, m, _ := snapshotFixture(t)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Rewrite the version field through generic JSON so the fingerprint
	// is not what trips the check.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{ModelVersion - 1, 99} {
		raw["format_version"] = json.RawMessage(fmt.Sprint(v))
		tampered, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeModel(bytes.NewReader(tampered)); !errors.Is(err, ErrModelVersion) {
			t.Fatalf("decoding version %d artifact: got %v, want ErrModelVersion", v, err)
		}
	}
	if err := (&Model{FormatVersion: 99}).Encode(&bytes.Buffer{}); !errors.Is(err, ErrModelVersion) {
		t.Fatalf("encoding foreign version: got %v, want ErrModelVersion", err)
	}
}

// TestDecodeModelCorruption: truncation, bit flips, and fingerprint
// tampering all surface as ErrModelCorrupt.
func TestDecodeModelCorruption(t *testing.T) {
	_, m, _ := snapshotFixture(t)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	artifact := buf.String()

	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeModel(strings.NewReader(artifact[:len(artifact)/2])); !errors.Is(err, ErrModelCorrupt) {
			t.Fatalf("got %v, want ErrModelCorrupt", err)
		}
	})
	t.Run("not json", func(t *testing.T) {
		if _, err := DecodeModel(strings.NewReader("not a model")); !errors.Is(err, ErrModelCorrupt) {
			t.Fatalf("got %v, want ErrModelCorrupt", err)
		}
	})
	t.Run("flipped payload", func(t *testing.T) {
		// Corrupt the threshold value: the artifact stays valid JSON but
		// the content no longer hashes to the recorded fingerprint.
		tampered := strings.Replace(artifact, `"no_outage_threshold":`, `"no_outage_threshold":1e9,"x":`, 1)
		if tampered == artifact {
			t.Fatal("tamper target not found")
		}
		if _, err := DecodeModel(strings.NewReader(tampered)); !errors.Is(err, ErrModelCorrupt) {
			t.Fatalf("got %v, want ErrModelCorrupt", err)
		}
	})
	t.Run("forged fingerprint", func(t *testing.T) {
		tampered := strings.Replace(artifact, m.Fingerprint, strings.Repeat("0", len(m.Fingerprint)), 1)
		if tampered == artifact {
			t.Fatal("tamper target not found")
		}
		if _, err := DecodeModel(strings.NewReader(tampered)); !errors.Is(err, ErrModelCorrupt) {
			t.Fatalf("got %v, want ErrModelCorrupt", err)
		}
	})
}

// TestModelValidateRejectsInconsistency: a structurally broken model
// (consistent fingerprint, wrong shapes) is rejected by FromModel.
func TestModelValidateRejectsInconsistency(t *testing.T) {
	_, m, _ := snapshotFixture(t)
	m.Mean = m.Mean[:len(m.Mean)-1]
	if _, err := FromModel(m); !errors.Is(err, ErrModelCorrupt) {
		t.Fatalf("got %v, want ErrModelCorrupt", err)
	}
}

// tamperedArtifacts encodes copies of m with one structural defect each,
// re-sealed so the fingerprint matches the hostile content and only the
// structural checks stand between it and Detect.
func tamperedArtifacts(t testing.TB, m *Model) map[string][]byte {
	t.Helper()
	tamper := map[string]func(m *Model){
		"group member out of range": func(m *Model) {
			m.Groups = slices.Clone(m.Groups)
			m.Groups[0].InCluster = append(slices.Clone(m.Groups[0].InCluster), 999)
		},
		"unknown channel": func(m *Model) { m.Config.Channel = 7 },
		"branch endpoint out of range": func(m *Model) {
			m.Grid = m.Grid.Clone()
			m.Grid.Branches[0].To = 99
		},
		"valid line listed twice": func(m *Model) {
			m.ValidLines = append(slices.Clone(m.ValidLines), m.ValidLines[0])
			m.LineBases = append(slices.Clone(m.LineBases), m.LineBases[0])
			m.CaseCapability = append(slices.Clone(m.CaseCapability), m.CaseCapability[0])
		},
		"bus in two clusters": func(m *Model) {
			m.Clusters = slices.Clone(m.Clusters)
			m.Clusters[1] = append(slices.Clone(m.Clusters[1]), m.Clusters[0][0])
		},
		"intersection basis missing": func(m *Model) {
			m.InterBases = m.InterBases[:len(m.InterBases)-1]
		},
		"case row short": func(m *Model) {
			m.CaseCapability = slices.Clone(m.CaseCapability)
			m.CaseCapability[0] = m.CaseCapability[0][1:]
		},
	}
	out := map[string][]byte{}
	for name, fn := range tamper {
		c := *m
		fn(&c)
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestDecodeModelRejectsHostileTables: artifacts whose detection groups,
// channel, grid or partition point outside the model, that list a
// valid line twice, or whose per-node or per-case tables are short, are
// refused at decode with ErrModelCorrupt. Without these checks the
// out-of-range group member, the unknown channel and the out-of-range
// branch decoded, booted, and then panicked inside Detect; the
// two-cluster bus decoded and only FromModel refused it. The detector
// keeps one line subspace per valid line, so a repeated line would
// score with its first basis where earlier builds kept the last. A
// missing intersection basis would index past the table in FromModel,
// and a short case row past its end when TrainPatch rebuilds the
// capability matrix from the rows.
func TestDecodeModelRejectsHostileTables(t *testing.T) {
	_, m, _ := snapshotFixture(t)
	for name, artifact := range tamperedArtifacts(t, m) {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeModel(bytes.NewReader(artifact)); !errors.Is(err, ErrModelCorrupt) {
				t.Fatalf("got %v, want ErrModelCorrupt", err)
			}
		})
	}
}

// FuzzDecodeModel feeds hostile artifacts to the model codec. Decoding
// must never panic, and a model it accepts must boot through FromModel
// and detect a normal, an outage and a cluster-dark sample without
// panicking. Nearly every mutation breaks the fingerprint, so an input
// that parses is also re-sealed and decoded again: that is how a forged
// artifact arrives, and it takes the fuzzer past the hash to the
// structural checks.
func FuzzDecodeModel(f *testing.F) {
	det, d := trainFixture(f, 1)
	m, err := det.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	for _, artifact := range tamperedArtifacts(f, m) {
		f.Add(artifact)
	}
	normal := d.Normal.Samples[0]
	outage := d.Outages[d.ValidLines[0]].Samples[0]
	// sized stretches a fixture sample to a model's bus count.
	sized := func(s dataset.Sample, n int) dataset.Sample {
		out := dataset.Sample{Vm: make([]float64, n), Va: make([]float64, n)}
		for i := range out.Vm {
			out.Vm[i], out.Va[i] = s.Vm[i%len(s.Vm)], s.Va[i%len(s.Va)]
		}
		return out
	}
	boot := func(t *testing.T, artifact []byte) {
		m, err := DecodeModel(bytes.NewReader(artifact))
		if err != nil {
			return
		}
		det, err := FromModel(m)
		if err != nil {
			t.Fatalf("decoded model does not boot: %v", err)
		}
		n := det.Grid().N()
		out := sized(outage, n)
		for _, s := range []dataset.Sample{sized(normal, n), out, out.WithMask(det.Network().ClusterMask(0))} {
			_, _ = det.Detect(s) // an error is an answer; only a panic fails
		}
	}
	f.Fuzz(func(t *testing.T, artifact []byte) {
		boot(t, artifact)
		var m Model
		if json.Unmarshal(artifact, &m) != nil {
			return
		}
		var buf bytes.Buffer
		if m.Encode(&buf) == nil {
			boot(t, buf.Bytes())
		}
	})
}
