package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path string
	Dir  string
	// Module is the path of the package's module and ModuleDir its root
	// directory; both are empty outside a module.
	Module    string
	ModuleDir string
	Fset      *token.FileSet
	Files     []*ast.File
	// TestFiles are the package's _test.go files (in-package and
	// external), parsed with comments but not type-checked — enough for
	// analyzers that cross-check test-side pins (allocfree).
	TestFiles []*ast.File
	Pkg       *types.Package
	Info      *types.Info

	loader *loader // for cross-package AST lookups (Pass.PkgAST)
}

// listedPackage is the part of one `go list -json` entry the loader
// reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	DepOnly      bool
	Standard     bool
	Module       *struct{ Path, Dir string }
}

// listFields are the go list fields the loader decodes.
const listFields = "ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Export,DepOnly,Standard,Module"

type loader struct {
	fset   *token.FileSet
	listed map[string]*listedPackage // import path -> entry, dependencies included
	asts   map[string][]*ast.File    // PkgAST results
}

// Load resolves patterns with one `go list -export -deps` run in dir
// and type-checks, from source, each package the patterns name. The go
// tool picks the packages and their files for the current build context
// and compiles every dependency's export data, so each import is read
// from that data: only the packages under analysis are parsed and
// checked. The packages come back in go list order.
func Load(dir string, patterns ...string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json=" + listFields, "--"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.Bytes())
	}
	l := &loader{fset: token.NewFileSet(), listed: map[string]*listedPackage{}, asts: map[string][]*ast.File{}}
	var roots []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		l.listed[lp.ImportPath] = lp
		if !lp.DepOnly {
			roots = append(roots, lp)
		}
	}
	conf := types.Config{
		Importer: importer.ForCompiler(l.fset, "gc", l.openExport),
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	pkgs := make([]*Package, 0, len(roots))
	for _, lp := range roots {
		p, err := l.check(&conf, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// openExport opens the compiler export data go list reported for path.
func (l *loader) openExport(path string) (io.ReadCloser, error) {
	lp := l.listed[path]
	if lp == nil || lp.Export == "" {
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
	return os.Open(lp.Export)
}

// check parses one listed package, with comments so directives survive,
// and type-checks it.
func (l *loader) check(conf *types.Config, lp *listedPackage) (*Package, error) {
	files, err := l.parse(lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	testFiles, err := l.parse(lp.Dir, append(append([]string(nil), lp.TestGoFiles...), lp.XTestGoFiles...))
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := conf.Check(lp.ImportPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", lp.ImportPath, err)
	}
	p := &Package{Path: lp.ImportPath, Dir: lp.Dir, Fset: l.fset, Files: files, TestFiles: testFiles, Pkg: pkg, Info: info, loader: l}
	if lp.Module != nil {
		p.Module, p.ModuleDir = lp.Module.Path, lp.Module.Dir
	}
	return p, nil
}

// pkgAST returns the parsed, comment-bearing (non-test) files of a
// listed non-standard package by import path. Results are cached; any
// failure (not listed, standard, unparseable) returns nil — annotation
// lookups degrade to "no annotations" rather than aborting analysis.
func (l *loader) pkgAST(path string) []*ast.File {
	if files, ok := l.asts[path]; ok {
		return files
	}
	var files []*ast.File
	if lp := l.listed[path]; lp != nil && !lp.Standard {
		files, _ = l.parse(lp.Dir, lp.GoFiles)
	}
	l.asts[path] = files
	return files
}

func (l *loader) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
