// Command gridlint runs the repo's custom static-analysis passes (see
// internal/analysis) over the given packages. It is part of the tier-1
// verify gate:
//
//	go build ./... && go vet ./... && go run ./cmd/gridlint ./... && go test -race ./...
//
// Usage:
//
//	gridlint [-list] [-json] [packages...]
//
// Packages are go list patterns and default to ./... . The go tool
// resolves them and supplies every dependency as compiler export data,
// so only the named packages are type-checked from source. Unsuppressed
// findings print to stderr. Exit status is 1 when there is any, 2 on
// operational errors.
//
// -list prints the analyzer catalog (name and one-line doc). -json also
// writes the full machine-readable report to stdout: module, analyzer
// catalog, and every finding — suppressed ones included, with the
// suppressing directive's reason — with module-root-relative
// forward-slash paths, in stable order. make lint writes it to
// gridlint.json, which CI archives.
//
// Suppress a finding with an end-of-line or preceding-line comment:
//
//	//gridlint:ignore <analyzer> <reason>
//
// The units and allocfree analyzers are driven by two further
// directives, //gridlint:unit and //gridlint:zeroalloc — see the
// internal/analysis package doc and DESIGN.md for the grammar.
package main

import (
	"flag"
	"fmt"
	"os"

	"pmuoutage/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "also write the machine-readable report to stdout")
	flag.Parse()

	if *list {
		for _, a := range analysis.Describe(analysis.All()) {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rep, err := analysis.Run(".", analysis.All(), patterns...)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		data, err := rep.MarshalIndent()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	}
	for _, f := range rep.Findings {
		if !f.Suppressed {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "gridlint: %d finding(s) in %d package(s)\n", rep.Errors, rep.Packages)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridlint:", err)
	os.Exit(2)
}
