package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces the cancellation contract of the parallel pipeline
// (see DESIGN.md "Deterministic parallel execution"): any exported
// function that fans work out — by launching goroutines or by calling
// into the internal/par worker pool — must accept a context.Context so
// callers can bound the work. It also flags channels allocated with a
// non-constant buffer capacity: queue bounds must be fixed at build
// time, or a config value silently becomes an unbounded (or zero,
// deadlocking) buffer.
//
// Thin compatibility wrappers that merely delegate to their Context
// variant don't trip the check, because the goroutines live in the
// callee, which takes a context.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "flag exported fan-out functions without a context.Context and channels with non-constant buffer capacity",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.IsExported() && !hasContextParam(pass, fd) {
				if site, kind := fanOutSite(pass, fd.Body); kind != "" {
					pass.Report(site.Pos(), "exported function %s %s but has no context.Context parameter; callers cannot bound or cancel the work", fd.Name.Name, kind)
				}
			}
		}
		// Non-constant channel buffers are a problem anywhere, exported
		// or not: the capacity must be auditable at the make site.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "make" {
				return true
			}
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if _, isChan := pass.Info.TypeOf(call.Args[0]).Underlying().(*types.Chan); !isChan {
				return true
			}
			if pass.Info.Types[call.Args[1]].Value == nil {
				pass.Report(call.Pos(), "channel buffer capacity is not a compile-time constant; bound the queue with a constant so backpressure is auditable")
			}
			return true
		})
	}
	return nil
}

// hasContextParam reports whether fd declares a context.Context
// parameter (receiver excluded — cancellation travels per call, not per
// object).
func hasContextParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isContext(pass.Info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// fanOutSite scans a function body for the first goroutine launch or
// call into the internal/par worker pool. Function literals nested in
// the body count too: they share the enclosing scope, so their fan-out
// is the exported function's fan-out.
func fanOutSite(pass *Pass, body ast.Node) (site ast.Node, kind string) {
	var found ast.Node
	var what string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			found, what = n, "launches goroutines"
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if obj, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && isParPackage(obj.Pkg()) {
					found, what = n, "fans out over the par worker pool"
				}
			}
		}
		return found == nil
	})
	if found == nil {
		return nil, ""
	}
	return found, what
}

// isParPackage matches the repo's worker-pool package by its import
// path tail, so the check works under any module name (golden tests
// load fixtures with Module unset).
func isParPackage(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "internal/par" || strings.HasSuffix(pkg.Path(), "/internal/par"))
}
