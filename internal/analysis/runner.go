package analysis

import "fmt"

// Run loads the packages patterns name (resolved by go list in dir) and
// runs the analyzers over each, returning the machine-readable report
// with suppressed findings included. Loading or type-checking failures
// abort the run: gridlint gates a repo that is expected to compile.
func Run(dir string, analyzers []*Analyzer, patterns ...string) (*Report, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	rep := &Report{Analyzers: Describe(analyzers), Packages: len(pkgs)}
	for _, pkg := range pkgs {
		rep.Module = pkg.Module
		diags, err := RunPackage(analyzers, pkg, pkg.Module)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			f := findingOf(d, pkg.ModuleDir)
			rep.Findings = append(rep.Findings, f)
			if !f.Suppressed {
				rep.Errors++
			}
		}
	}
	sortFindings(rep.Findings)
	return rep, nil
}

// RunPackage runs the analyzers over one loaded package and applies
// //gridlint:ignore suppression, returning every finding, suppressed
// ones marked with the suppressing directive's reason. module is the
// module path used to classify imports as repo-internal (empty disables
// that check). When the ignoreaudit analyzer is among the analyzers it
// additionally audits the suppression ledger for staleness: a directive
// that suppressed nothing, naming an analyzer that actually ran (or
// "all"), is itself a finding. Directives naming ignoreaudit are exempt
// — they exist to suppress audit findings, which are produced after the
// match bookkeeping.
func RunPackage(analyzers []*Analyzer, pkg *Package, module string) ([]Diagnostic, error) {
	var diags []Diagnostic
	ignores := map[string][]*ignoreDirective{}
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		ignores[name] = parseIgnores(pkg.Fset, f, &diags)
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TestFiles: pkg.TestFiles,
			Pkg:       pkg.Pkg,
			Info:      pkg.Info,
			Module:    module,
			PkgAST:    pkg.loader.pkgAST,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	markSuppressed(diags, ignores)
	if ran[IgnoreAudit.Name] {
		stale := len(diags)
		for _, dirs := range ignores {
			for _, dir := range dirs {
				if dir.matched || dir.analyzer == IgnoreAudit.Name {
					continue
				}
				if dir.analyzer != "all" && !ran[dir.analyzer] {
					continue // not stale: its analyzer did not run
				}
				diags = append(diags, Diagnostic{
					Pos:      dir.pos,
					Analyzer: IgnoreAudit.Name,
					Message:  fmt.Sprintf("stale ignore directive: no %s finding here to suppress on the current tree", dir.analyzer),
				})
			}
		}
		markSuppressed(diags[stale:], ignores)
	}
	return diags, nil
}
