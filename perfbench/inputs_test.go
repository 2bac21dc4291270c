package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"pmuoutage"
)

// generated builds every kind of input the workloads use from one seed,
// training the system from scratch, and returns them encoded.
func generated(t *testing.T, seed int64) []byte {
	t.Helper()
	ctx := context.Background()
	s, err := trainSystem(ctx, serveCase)
	if err != nil {
		t.Fatal(err)
	}
	set, err := replaySet(ctx, s.sys, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := newServePool(ctx, s.sys, seed, 50, 200, serveOutageShare)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := newIngestScript(ctx, s.sys, serveCase, seed, 6, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		Replay []labelled
		Serve  *servePool
		Ingest *ingestScript
	}{set, pool, sc})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsDeterministicInSeed(t *testing.T) {
	a, b := generated(t, 5), generated(t, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, generated(t, 6)) {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestInputShapes(t *testing.T) {
	ctx := context.Background()
	s, err := trainSystem(ctx, serveCase)
	if err != nil {
		t.Fatal(err)
	}
	set, err := replaySet(ctx, s.sys, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	normals := 0
	for _, l := range set {
		if l.normal() {
			normals++
		}
	}
	if want := 2 * len(s.sys.ValidLines()); len(set) != 2*want || normals != want {
		t.Fatalf("replay set: %d samples, %d normal; want %d outage + %d normal", len(set), normals, want, want)
	}
	batches := replayBatches(set, 3)
	if want := normals / 3; len(batches) != want {
		t.Fatalf("replay batches: %d, want %d", len(batches), want)
	}
	seen := map[int]bool{}
	for b, batch := range batches {
		for j, k := range batch {
			if seen[k] || set[k].normal() != (j >= 3) {
				t.Fatalf("batch %d: %v is not 3 distinct outage then 3 normal samples", b, batch)
			}
			seen[k] = true
		}
	}

	pool, err := newServePool(ctx, s.sys, 1, 100, 20000, serveOutageShare)
	if err != nil {
		t.Fatal(err)
	}
	outage := 0
	for _, i := range pool.Requests {
		if !pool.Samples[i].normal() {
			outage++
		}
	}
	if share := float64(outage) / float64(len(pool.Requests)); share < 0.04 || share > 0.06 {
		t.Fatalf("serve outage share %.3f, want about %.2f", share, serveOutageShare)
	}

	sc, err := newIngestScript(ctx, s.sys, serveCase, 1, 4, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Frames) != 5*10+4*3 || len(sc.Episodes) != 4 {
		t.Fatalf("script: %d frames, %d episodes", len(sc.Frames), len(sc.Episodes))
	}
	for k, ep := range sc.Episodes {
		for j := ep.Onset; j < ep.Onset+ep.Length; j++ {
			if sc.Frames[j].Line != ep.Line {
				t.Fatalf("episode %d frame %d labelled %d, want line %d", k, j, sc.Frames[j].Line, ep.Line)
			}
		}
		if sc.Frames[ep.Onset-1].Line != -1 || sc.Frames[ep.Onset+ep.Length].Line != -1 {
			t.Fatalf("episode %d is not surrounded by normal frames", k)
		}
	}
}

func TestScoreEvents(t *testing.T) {
	sc := &ingestScript{
		Frames:   make([]labelled, 20),
		Episodes: []episode{{Onset: 3, Length: 4, Line: 7}, {Onset: 12, Length: 4, Line: 9}},
	}
	events := make([]*pmuoutage.Event, 20)
	events[5] = &pmuoutage.Event{Lines: []pmuoutage.Line{{Index: 7}}}  // episode 0, 3 samples after onset
	events[6] = &pmuoutage.Event{Lines: []pmuoutage.Line{{Index: 7}}}  // duplicate within episode 0: ignored
	events[10] = &pmuoutage.Event{Lines: []pmuoutage.Line{{Index: 1}}} // normal stretch: false event
	events[14] = &pmuoutage.Event{Lines: []pmuoutage.Line{{Index: 2}}} // episode 1, wrong line
	q := scoreEvents(events, sc)
	if q.detected != 2 || q.delay != 3 || q.recall != 0.5 || q.falseEvents != 1 || q.precision() != 2.0/3 {
		t.Fatalf("scoreEvents = %+v, precision %v", q, q.precision())
	}
}

func TestSampleQuality(t *testing.T) {
	var q sampleQuality
	named := &pmuoutage.Report{Outage: true, Lines: []pmuoutage.Line{{Index: 4}}}
	wrong := &pmuoutage.Report{Outage: true, Lines: []pmuoutage.Line{{Index: 5}}}
	quiet := &pmuoutage.Report{}
	q.add(labelled{Line: 4}, named)  // IA 1, FA 0
	q.add(labelled{Line: 4}, wrong)  // IA 0, FA 1
	q.add(labelled{Line: -1}, quiet) // IA 1, FA 0
	q.add(labelled{Line: -1}, wrong) // IA 0, FA 1
	o := newOutcome()
	q.record(o)
	if len(o.problems) != 0 || o.e2e["accuracy"] != 0.5 || o.e2e["alarm_precision"] != 0.5 || o.e2e["delay_samples"] != 2 {
		t.Fatalf("recorded %v, problems %v", o.e2e, o.problems)
	}

	var none sampleQuality
	none.add(labelled{Line: 4}, quiet)
	o = newOutcome()
	if none.record(o); len(o.problems) != 1 {
		t.Fatalf("an undetected outage set recorded %v without a problem", o.e2e)
	}
}
