// Package analysis is gridlint's multichecker framework: a small,
// stdlib-only static-analysis harness plus the repo-tailored analyzers
// that gate every PR (see DESIGN.md "Static analysis & race gate").
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// without the dependency: an Analyzer inspects one type-checked package
// through a Pass and reports Diagnostics. Load asks the go tool for the
// packages (go list -export -deps) and type-checks only those from
// source, reading every import from compiler export data; Run applies
// //gridlint:ignore suppressions and aggregates results.
//
// Three comment directives make up the whole annotation language:
//
//	//gridlint:ignore <analyzer> <reason...>   suppress one finding
//	//gridlint:unit <rad|deg|pu|si|hz>         declare a physical frame (units analyzer)
//	//gridlint:zeroalloc                       pin a function allocation-free (allocfree analyzer)
//
// Suppression: a diagnostic is silenced by an ignore directive placed
// either on the same line as the offending code or on the line directly
// above it. The analyzer name "all" silences every analyzer. A reason
// is mandatory — ignore directives without one are themselves reported
// as diagnostics, so suppressions stay auditable; the ignoreaudit
// analyzer additionally flags directives that no longer suppress
// anything on the current tree.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a human-readable message. Suppressed findings are kept (flagged,
// with the suppressing reason) so machine-readable reports can audit
// the suppression ledger; the gate only prints and counts unsuppressed
// ones.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks a finding silenced by an ignore directive;
	// SuppressedBy carries that directive's reason.
	Suppressed   bool
	SuppressedBy string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in output and ignore directives.
	Name string
	// Doc is a one-line description shown by gridlint -list.
	Doc string
	// Run inspects the package behind pass and reports findings through
	// pass.Report. Returning an error aborts the whole run (reserved for
	// internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// TestFiles are the package's _test.go files (in-package and
	// external), parsed but not type-checked. Analyzers that cross-check
	// runtime pins (allocfree) read them; most analyzers ignore them.
	TestFiles []*ast.File
	Pkg       *types.Package
	Info      *types.Info
	// Module is the module path of the repo under analysis; analyzers
	// use it to classify callees as repo-internal. Empty disables the
	// classification (golden tests).
	Module string
	// PkgAST returns the parsed (comment-bearing, non-type-checked)
	// files of a non-standard dependency by import path, or nil when
	// unavailable. The units analyzer uses it to read annotations
	// declared in dependency packages.
	PkgAST func(importPath string) []*ast.File

	diags *[]Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IgnorePrefix is the comment directive that suppresses a diagnostic.
const IgnorePrefix = "//gridlint:ignore"

// ignoreDirective is one parsed //gridlint:ignore comment.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	reason   string
	// matched records whether the directive suppressed at least one
	// diagnostic in this run — the staleness signal ignoreaudit reads.
	matched bool
}

// parseIgnores extracts the ignore directives of a file and reports
// malformed ones (missing analyzer or reason) as diagnostics.
func parseIgnores(fset *token.FileSet, f *ast.File, diags *[]Diagnostic) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, IgnorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, IgnorePrefix))
			name, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if name == "" || reason == "" {
				*diags = append(*diags, Diagnostic{
					Pos:      pos,
					Analyzer: "gridlint",
					Message:  "malformed ignore directive: want //gridlint:ignore <analyzer> <reason>",
				})
				continue
			}
			out = append(out, &ignoreDirective{pos: pos, analyzer: name, reason: reason})
		}
	}
	return out
}

// markSuppressed flags diagnostics covered by an ignore directive on the
// same line or the line directly above, and records on each directive
// whether it matched anything. Directives are matched per file. The
// framework's own "gridlint" diagnostics can never be suppressed.
func markSuppressed(diags []Diagnostic, ignores map[string][]*ignoreDirective) {
	for i := range diags {
		d := &diags[i]
		if d.Analyzer == "gridlint" || d.Suppressed {
			continue
		}
		for _, dir := range ignores[d.Pos.Filename] {
			if dir.analyzer != d.Analyzer && dir.analyzer != "all" {
				continue
			}
			if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
				d.Suppressed = true
				d.SuppressedBy = dir.reason
				dir.matched = true
				break
			}
		}
	}
}
