package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"strings"
)

// AllocFree screens functions annotated //gridlint:zeroalloc for
// constructs that force (or routinely cause) heap allocation. The
// serving hot path — obs.Counter/Histogram recording, trace-ID
// reads, per-batch shard accounting — promises zero allocations per
// operation, and PR 5 pinned that promise with testing.AllocsPerRun.
// Those runtime pins only fire when the benchmark runs; this analyzer
// catches the regression at lint time, before any test executes:
//
//	//gridlint:zeroalloc
//	func (c *Counter) Inc() { ... }
//
// flags fmt calls, non-constant string concatenation, append, make and
// new, slice/map literals, address-taken composite literals,
// string↔[]byte conversions, interface boxing of non-pointer values
// (zero-size keys and constants are exempt — they don't allocate), and
// function literals and go statements. It also cross-checks the pin:
// every annotated function must be exercised by an AllocsPerRun test in
// the same package, so the static promise and the runtime proof cannot
// drift apart.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc:  "screen //gridlint:zeroalloc functions for allocating constructs and require an AllocsPerRun pin",
	Run:  runAllocFree,
}

// ZeroallocPrefix marks a function allocation-free.
const ZeroallocPrefix = "//gridlint:zeroalloc"

func hasZeroalloc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, ZeroallocPrefix) {
			return true
		}
	}
	return false
}

func runAllocFree(pass *Pass) error {
	pinned := allocPinnedNames(pass.TestFiles)
	sizes := types.SizesFor("gc", runtime.GOARCH)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasZeroalloc(fd.Doc) {
				continue
			}
			name := fnKey(fd)
			if !pinned[fd.Name.Name] {
				pass.Report(fd.Pos(), "function %s is marked zeroalloc but no AllocsPerRun test pins it", name)
			}
			if fd.Body != nil {
				(&allocChecker{pass: pass, sizes: sizes, fn: name}).check(fd.Body)
			}
		}
	}
	return nil
}

// allocPinnedNames collects every identifier mentioned inside a test
// function that calls testing.AllocsPerRun. The measured code is named
// somewhere in that body — directly (c.Inc()) or through a table entry
// (tc.fn) whose construction names the method — so an annotated
// function whose name never appears near an AllocsPerRun call has no
// runtime pin.
func allocPinnedNames(testFiles []*ast.File) map[string]bool {
	pinned := map[string]bool{}
	for _, f := range testFiles {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			uses := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "AllocsPerRun" {
					uses = true
				}
				return true
			})
			if !uses {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					pinned[id.Name] = true
				}
				return true
			})
		}
	}
	return pinned
}

// allocChecker walks one zeroalloc body reporting allocating constructs.
type allocChecker struct {
	pass  *Pass
	sizes types.Sizes
	fn    string
}

func (c *allocChecker) check(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.pass.Report(n.Pos(), "zeroalloc function %s creates a function literal, which may allocate a closure", c.fn)
			return false
		case *ast.GoStmt:
			c.pass.Report(n.Pos(), "zeroalloc function %s starts a goroutine, which allocates", c.fn)
		case *ast.BinaryExpr:
			c.binary(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					c.pass.Report(n.Pos(), "zeroalloc function %s takes the address of a composite literal, which escapes to the heap", c.fn)
					return false
				}
			}
		case *ast.CompositeLit:
			switch c.pass.Info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				c.pass.Report(n.Pos(), "zeroalloc function %s builds a slice literal, which allocates", c.fn)
			case *types.Map:
				c.pass.Report(n.Pos(), "zeroalloc function %s builds a map literal, which allocates", c.fn)
			}
		case *ast.CallExpr:
			c.call(n)
		}
		return true
	})
}

// binary flags non-constant string concatenation.
func (c *allocChecker) binary(e *ast.BinaryExpr) {
	if e.Op != token.ADD {
		return
	}
	tv, ok := c.pass.Info.Types[e]
	if !ok || tv.Value != nil { // constant concatenation folds at compile time
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		c.pass.Report(e.OpPos, "zeroalloc function %s concatenates strings, which allocates", c.fn)
	}
}

func (c *allocChecker) call(call *ast.CallExpr) {
	// Conversions: only the string↔[]byte/[]rune pair allocates.
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && c.stringBytesConv(tv.Type, c.pass.Info.TypeOf(call.Args[0])) {
			if av, ok := c.pass.Info.Types[call.Args[0]]; !ok || av.Value == nil {
				c.pass.Report(call.Pos(), "zeroalloc function %s converts between string and byte/rune slice, which copies and allocates", c.fn)
			}
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.pass.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				c.pass.Report(call.Pos(), "zeroalloc function %s calls append, which may grow its backing array", c.fn)
			case "make", "new":
				c.pass.Report(call.Pos(), "zeroalloc function %s calls %s, which allocates", c.fn, id.Name)
			}
			return
		}
	}
	// fmt: every entry point formats through reflection and allocates.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if f, ok := c.pass.Info.ObjectOf(sel.Sel).(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
			c.pass.Report(call.Pos(), "zeroalloc function %s calls fmt.%s, which allocates", c.fn, f.Name())
			return
		}
	}
	c.boxing(call)
}

// stringBytesConv reports whether a conversion between to and from
// crosses the string/byte-slice boundary.
func (c *allocChecker) stringBytesConv(to, from types.Type) bool {
	if from == nil {
		return false
	}
	return (isStringType(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// boxing flags arguments whose concrete, non-pointer, non-zero-size
// values convert to interface parameters — each such conversion heap-
// allocates a copy. Constants and untyped nil are exempt.
func (c *allocChecker) boxing(call *ast.CallExpr) {
	sig, ok := c.pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // f(xs...): the slice passes through unboxed
			}
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		tv, ok := c.pass.Info.Types[arg]
		if !ok || tv.Type == nil || tv.Value != nil {
			continue // constants don't force a fresh allocation we can see statically
		}
		at := tv.Type
		if types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // pointer-shaped: stored directly in the interface word
		}
		if c.sizes != nil && c.sizes.Sizeof(at) == 0 {
			continue // zero-size values (context keys) share a static cell
		}
		c.pass.Report(arg.Pos(), "zeroalloc function %s boxes a value of type %s into an interface argument, which allocates", c.fn, at.String())
	}
}
