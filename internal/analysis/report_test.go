package analysis

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// reportFixture runs a fixed analyzer set over two testdata packages —
// one with matching ignore directives (suppress), one with plain
// findings (units) — and returns the report.
func reportFixture(t *testing.T) *Report {
	t.Helper()
	rep, err := Run(".", []*Analyzer{FloatCmp, Units, IgnoreAudit},
		"./testdata/src/suppress", "./testdata/src/units")
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReportRoundTrip pins the machine-readable contract: the report
// survives encoding/json round-trips unchanged, repeated runs are
// byte-identical (stable ordering), paths are module-root-relative
// with forward slashes, and suppressed findings are present with the
// suppressing reason.
func TestReportRoundTrip(t *testing.T) {
	rep := reportFixture(t)
	if len(rep.Findings) == 0 {
		t.Fatal("fixture produced no findings")
	}
	if got := len(rep.Analyzers); got != 3 {
		t.Fatalf("report lists %d analyzers, want 3", got)
	}

	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep, back) {
		t.Fatal("report does not survive a JSON round-trip")
	}

	again := reportFixture(t)
	data2, err := again.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("two identical runs produced different JSON reports")
	}

	suppressed := 0
	for _, f := range rep.Findings {
		if strings.Contains(f.File, `\`) || filepath.IsAbs(f.File) {
			t.Fatalf("finding path %q is not module-root-relative with forward slashes", f.File)
		}
		if f.Suppressed {
			suppressed++
			if f.SuppressedBy == "" {
				t.Fatalf("suppressed finding %+v carries no suppressing reason", f)
			}
		}
	}
	if suppressed == 0 {
		t.Fatal("suppress fixture produced no suppressed findings in the report")
	}
	if rep.Errors == 0 {
		t.Fatal("units fixture should contribute unsuppressed error findings")
	}

	// The tally must agree with the findings it summarizes.
	errs := 0
	for _, f := range rep.Findings {
		if !f.Suppressed {
			errs++
		}
	}
	if errs != rep.Errors {
		t.Fatalf("tally mismatch: report says %d, findings say %d", rep.Errors, errs)
	}
}
