package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// smoke runs one workload for a short time through the command's entry
// point, checks the final JSON line and returns the report.
func smoke(t *testing.T, workload, seconds string, trace bool) string {
	t.Helper()
	defs, flag := e2eMetrics, "0"
	if trace {
		defs, flag = layerMetrics, "1"
	}
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", flag}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	var res struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
		t.Fatalf("result %+v", res)
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
	}
	return out.String()
}

// quality keeps the report lines of the detection-quality figures.
func quality(report string) []string {
	var out []string
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && (f[0] == "ia" || f[0] == "fa" || f[0] == "normal" || strings.HasPrefix(f[0], "event_") || f[0] == "false_events" ||
			f[0] == "accuracy" || f[0] == "alarm_precision" || f[0] == "delay_samples") {
			out = append(out, line)
		}
	}
	return out
}

// The detection-quality figures depend only on the seed: two runs of
// the same seed print them identically, whatever the timing did.
func TestQualityRepeatsAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range []struct{ name, seconds string }{{"serve-30", "1"}, {"ingest-30", "3"}, {"replay-118", "1"}} {
		a, b := quality(smoke(t, w.name, w.seconds, false)), quality(smoke(t, w.name, w.seconds, false))
		if len(a) == 0 || strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: quality differs between runs of one seed:\n%s\n---\n%s", w.name, strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
	}
}

func TestSmokeServe(t *testing.T)  { smoke(t, "serve-30", "1", false) }
func TestSmokeIngest(t *testing.T) { smoke(t, "ingest-30", "3", false) }
func TestSmokeReplay(t *testing.T) { smoke(t, "replay-118", "1", false) }

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs train every grid twice")
	}
	smoke(t, "serve-30", "1", true)
	smoke(t, "ingest-30", "6", true)
	smoke(t, "replay-118", "1", true)
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-30", "--seconds", "0"},
		{"--workload", "serve-30", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
