package analysis

import (
	"go/ast"
	"go/types"
)

// MetricName polices the telemetry registration surface (internal/obs):
// every metric name and label key handed to a Registry registration
// method, and every stage handed to a Tracer span method, must be a
// package-level constant. Constants keep the metric catalog and the
// per-stage SLO rows greppable and bounded: a name or stage built at
// run time mints a new series per value. The registry itself panics at
// run time on names and label keys that are not snake_case and on
// exact duplicate registrations.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "require package-level constant metric names, label keys and span stages",
	Run:  runMetricName,
}

// metricRegMethods maps each Registry registration method to the
// argument index where the variadic label key/value pairs begin.
// GaugeFunc and AttachCounter carry an extra payload argument (the
// callback / the counter) between help and the labels.
var metricRegMethods = map[string]int{
	"Counter":        2,
	"Gauge":          2,
	"Histogram":      2,
	"ValueHistogram": 2,
	"GaugeFunc":      3,
	"AttachCounter":  3,
}

// tracerStageMethods maps each Tracer span method to the index of its
// stage argument.
var tracerStageMethods = map[string]int{
	"StartSpan":  1,
	"RecordSpan": 1,
}

func runMetricName(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if idx, ok := receiverMethod(pass, call, "Tracer", tracerStageMethods); ok {
				if idx < len(call.Args) {
					checkMetricIdent(pass, call.Args[idx], "span stage")
				}
				return true
			}
			labelStart, ok := registryMethod(pass, call)
			if !ok || len(call.Args) == 0 {
				return true
			}
			checkMetricIdent(pass, call.Args[0], "metric name")
			// Label keys sit at even offsets of the variadic tail. A
			// spread (labels...) hides the pairs; leave it to runtime.
			if call.Ellipsis.IsValid() {
				return true
			}
			for i := labelStart; i < len(call.Args); i += 2 {
				checkMetricIdent(pass, call.Args[i], "label key")
			}
			return true
		})
	}
	return nil
}

// registryMethod reports whether call is a registration method on a
// type named Registry, returning the index of its first label argument.
func registryMethod(pass *Pass, call *ast.CallExpr) (int, bool) {
	return receiverMethod(pass, call, "Registry", metricRegMethods)
}

// receiverMethod reports whether call is one of methods on a type with
// the given name, returning the mapped argument index.
func receiverMethod(pass *Pass, call *ast.CallExpr, recvName string, methods map[string]int) (int, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	idx, ok := methods[sel.Sel.Name]
	if !ok {
		return 0, false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0, false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != recvName {
		return 0, false
	}
	return idx, true
}

// checkMetricIdent requires one name-position argument (metric name,
// label key or span stage) to reference a package-level constant.
func checkMetricIdent(pass *Pass, arg ast.Expr, role string) {
	obj := constObject(pass, arg)
	if obj == nil {
		pass.Report(arg.Pos(), "%s must be a package-level named constant, not %s", role, describeExpr(arg))
		return
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		pass.Report(arg.Pos(), "%s constant %s must be declared at package level", role, obj.Name())
	}
}

// constObject resolves arg to the *types.Const it references, or nil
// for literals, variables, and anything computed.
func constObject(pass *Pass, arg ast.Expr) *types.Const {
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		c, _ := pass.Info.Uses[e].(*types.Const)
		return c
	case *ast.SelectorExpr:
		c, _ := pass.Info.Uses[e.Sel].(*types.Const)
		return c
	}
	return nil
}

// describeExpr names the offending argument kind for the diagnostic.
func describeExpr(arg ast.Expr) string {
	switch ast.Unparen(arg).(type) {
	case *ast.BasicLit:
		return "a string literal"
	case *ast.Ident, *ast.SelectorExpr:
		return "a variable"
	default:
		return "a computed expression"
	}
}
