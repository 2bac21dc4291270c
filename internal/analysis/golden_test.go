package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// goldenDirs maps each testdata/src package to the (comma-separated)
// analyzers exercised on it. The dimcheck package is named subspace
// inside (the analyzer keys on package name); suppress reuses floatcmp
// to exercise ignore directives; ignoreaudit runs alongside floatcmp so
// its directives have real findings to match or miss.
var goldenDirs = map[string]string{
	"apierr":      "apierr",
	"apierrfleet": "apierr",
	"ctxflow":     "ctxflow",
	"floatcmp":    "floatcmp",
	"errcheck":    "errcheck",
	"globalrand":  "globalrand",
	"locksmell":   "locksmell",
	"metricname":  "metricname",
	"dimcheck":    "dimcheck",
	"modeliowire": "modelio",
	"suppress":    "floatcmp",
	"units":       "units",
	"allocfree":   "allocfree",
	"ignoreaudit": "ignoreaudit,floatcmp",
}

// wantRE pulls the backquoted regexps out of a `// want` comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

func TestGolden(t *testing.T) {
	var patterns []string
	for dir := range goldenDirs {
		patterns = append(patterns, "./testdata/src/"+dir)
	}
	pkgs, err := Load(".", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		dir := filepath.Base(pkg.Dir)
		t.Run(dir, func(t *testing.T) {
			all := All()
			var analyzers []*Analyzer
			for _, name := range strings.Split(goldenDirs[dir], ",") {
				i := slices.IndexFunc(all, func(a *Analyzer) bool { return a.Name == name })
				if i < 0 {
					t.Fatalf("unknown analyzer %q", name)
				}
				analyzers = append(analyzers, all[i])
			}
			diags, err := RunPackage(analyzers, pkg, "")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, pkg.Dir, diags)
		})
	}
}

// checkGolden compares unsuppressed diagnostics against the `// want`
// annotations in every Go file under dir: each annotated line must
// produce exactly as many diagnostics as it has patterns, each pattern
// matching one, and no unannotated line may produce any.
func checkGolden(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	wants := map[string][]string{} // "file:line" -> patterns
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			key := fmt.Sprintf("%s:%d", path, i+1)
			for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
				wants[key] = append(wants[key], m[1])
			}
			if len(wants[key]) == 0 {
				t.Errorf("%s: // want comment without a backquoted pattern", key)
			}
		}
	}

	got := map[string][]string{} // "file:line" -> messages
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		got[key] = append(got[key], d.Message)
	}
	for key, patterns := range wants {
		msgs := got[key]
		if len(msgs) != len(patterns) {
			t.Errorf("%s: got %d diagnostic(s) %q, want %d matching %q",
				key, len(msgs), msgs, len(patterns), patterns)
			continue
		}
		for _, pat := range patterns {
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Errorf("%s: bad want pattern %q: %v", key, pat, err)
				continue
			}
			matched := false
			for _, msg := range msgs {
				if re.MatchString(msg) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s: no diagnostic matches %q; got %q", key, pat, msgs)
			}
		}
	}
	for key, msgs := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected diagnostic(s) %q", key, msgs)
		}
	}
}

func TestMalformedIgnoreDirective(t *testing.T) {
	src := `package p

//gridlint:ignore floatcmp
var X = 1

//gridlint:ignore
var Y = 2

//gridlint:ignore floatcmp has a reason, so it parses
var Z = 3
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	dirs := parseIgnores(fset, f, &diags)
	if len(dirs) != 1 {
		t.Fatalf("parsed %d directives, want 1 (only the well-formed one): %+v", len(dirs), dirs)
	}
	if dirs[0].analyzer != "floatcmp" {
		t.Fatalf("directive analyzer = %q", dirs[0].analyzer)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 malformed-directive reports: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "gridlint" || !strings.Contains(d.Message, "malformed ignore directive") {
			t.Fatalf("unexpected diagnostic: %v", d)
		}
	}
}

// TestIgnoreCannotSilenceMalformedReports pins the auditability rule:
// suppress never drops the framework's own "gridlint" diagnostics.
func TestIgnoreCannotSilenceMalformedReports(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "x.go", Line: 3},
		Analyzer: "gridlint",
		Message:  "malformed ignore directive",
	}
	ignores := map[string][]*ignoreDirective{
		"x.go": {{
			pos:      token.Position{Filename: "x.go", Line: 3},
			analyzer: "all",
			reason:   "trying to hide the audit trail",
		}},
	}
	diags := []Diagnostic{d}
	markSuppressed(diags, ignores)
	if diags[0].Suppressed {
		t.Fatal("a gridlint framework diagnostic was suppressed by an ignore directive")
	}
	if ignores["x.go"][0].matched {
		t.Fatal("the directive was credited with a match it did not make")
	}
}
