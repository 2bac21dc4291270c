package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnitsCrossPackage pins the dependency-annotation path: frames
// declared on fields and functions in package a (read through
// Pass.PkgAST, never type-checked as the current package) constrain
// uses in package b.
func TestUnitsCrossPackage(t *testing.T) {
	mod := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmpunits\n\ngo 1.21\n")
	write("a/a.go", `package a

// Phasor is one measurement.
type Phasor struct {
	Vm float64 //gridlint:unit pu
	Va float64 //gridlint:unit rad
}

// Wrap normalizes an angle.
//
//gridlint:unit va rad
//gridlint:unit return rad
func Wrap(va float64) float64 { return va }
`)
	write("b/b.go", `package b

import "tmpunits/a"

// Mixup feeds the wrong frames across the package boundary.
//
//gridlint:unit deg deg
func Mixup(p *a.Phasor, deg float64) float64 {
	p.Va = deg        // deg into a rad field
	_ = a.Wrap(p.Vm)  // pu into a rad parameter
	return a.Wrap(deg) // deg into a rad parameter
}
`)
	pkgs, err := Load(mod, "./b")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunPackage([]*Analyzer{Units}, pkgs[0], "tmpunits")
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{
		"assigning deg value to a field declared rad",
		"passing pu value as parameter va, declared rad",
		"passing deg value as parameter va, declared rad",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing cross-package diagnostic %q; got:\n%s", want, joined)
		}
	}
	if len(diags) != 3 {
		t.Errorf("got %d diagnostics, want 3:\n%s", len(diags), joined)
	}
}
