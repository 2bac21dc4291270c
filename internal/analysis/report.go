package analysis

import (
	"encoding/json"
	"path/filepath"
	"sort"
)

// Finding is one diagnostic in the machine-readable report. File paths
// are module-root-relative with forward slashes so reports are stable
// across machines and usable as CI artifacts.
type Finding struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	// SuppressedBy is the ignore directive's reason when Suppressed.
	SuppressedBy string `json:"suppressed_by,omitempty"`
}

// AnalyzerInfo describes one analyzer in the report header and the
// gridlint -list output.
type AnalyzerInfo struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

// Report is the complete machine-readable result of one gridlint run.
type Report struct {
	Module    string         `json:"module"`
	Analyzers []AnalyzerInfo `json:"analyzers"`
	Packages  int            `json:"packages"`
	// Findings holds every diagnostic, suppressed ones included, in
	// stable (file, line, col, analyzer) order.
	Findings []Finding `json:"findings"`
	// Errors counts unsuppressed findings — the number that decides the
	// exit status.
	Errors int `json:"errors"`
}

// Describe lists the given analyzers as report/-list metadata.
func Describe(analyzers []*Analyzer) []AnalyzerInfo {
	out := make([]AnalyzerInfo, 0, len(analyzers))
	for _, a := range analyzers {
		out = append(out, AnalyzerInfo{Name: a.Name, Doc: a.Doc})
	}
	return out
}

// findingOf converts one diagnostic, relativizing its path to root.
func findingOf(d Diagnostic, root string) Finding {
	file := d.Pos.Filename
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) {
			file = rel
		}
	}
	return Finding{
		Analyzer:     d.Analyzer,
		File:         filepath.ToSlash(file),
		Line:         d.Pos.Line,
		Col:          d.Pos.Column,
		Message:      d.Message,
		Suppressed:   d.Suppressed,
		SuppressedBy: d.SuppressedBy,
	}
}

// sortFindings orders findings by file, line, column, analyzer and
// message, so a report does not depend on the order analyzers ran in.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// MarshalIndent renders the report as stable, human-diffable JSON.
func (r *Report) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
