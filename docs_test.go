package pmuoutage

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// TestDocsNamePathsThatExist: every repository path, make target and
// Go identifier that DESIGN.md and README.md name exists, so the map
// cannot drift from the tree. A path is an entry of README's package
// tree, the first word of a backticked span that starts with one of the
// top-level source directories or is a file name with a '/' in it, or
// a command a run line names (./cmd/<name> or ./examples/<name>,
// fenced blocks included). A make target is the word after make in a
// backticked span or at the start of a line, and the Makefile must
// define it. A Go identifier is a backticked span that starts with
// pkg.Name or pkg.Type.Member, pkg the name of a package in this module;
// pkg's non-test files must declare Name at top level or as a field or
// method of one of its types, or Member as a field or method of Type.
func TestDocsNamePathsThatExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	decls, err := moduleDecls()
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(mk), -1) {
		defined[m[1]] = true
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range docPaths(string(b)) {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
		for _, target := range docMakeTargets(string(b)) {
			if !defined[target] {
				t.Errorf("%s names make %s, which the Makefile does not define", doc, target)
			}
		}
		for _, m := range backticked.FindAllStringSubmatch(string(b), -1) {
			id := goIdent.FindStringSubmatch(m[1])
			if id == nil || decls[id[1]] == nil {
				continue
			}
			if !decls[id[1]].declares(id[2], id[3]) {
				t.Errorf("%s names %s, which package %s does not declare", doc, id[0], id[1])
			}
		}
	}
}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	treeEntry  = regexp.MustCompile(`^[│ ]*[├└]── (\S+)`)
	runTarget  = regexp.MustCompile(`\./((?:cmd|examples)/[A-Za-z0-9_-]+)`)
	makeRule   = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	makeLine   = regexp.MustCompile(`(?m)^make ([A-Za-z0-9_-]+)`)
	goIdent    = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	pathDirs   = []string{"api/", "client/", "cmd/", "examples/", "internal/", "perfbench/", ".github/"}
	pathExts   = []string{".go", ".md", ".json", ".s", ".sh"}
)

// docPaths returns the repository paths doc names, in order.
func docPaths(doc string) []string {
	var paths []string
	for _, line := range strings.Split(doc, "\n") {
		if m := treeEntry.FindStringSubmatch(line); m != nil {
			paths = append(paths, m[1])
		}
	}
	for _, m := range runTarget.FindAllStringSubmatch(doc, -1) {
		paths = append(paths, m[1])
	}
	for _, m := range backticked.FindAllStringSubmatch(doc, -1) {
		words := strings.Fields(m[1])
		if len(words) == 0 {
			continue
		}
		if p, ok := repoPath(words[0]); ok {
			paths = append(paths, p)
		}
	}
	return paths
}

// repoPath reports whether tok names a repository path, and which. A
// pkg/path.Symbol token names its package directory.
func repoPath(tok string) (string, bool) {
	if slices.Contains(pathExts, path.Ext(tok)) && strings.Contains(tok, "/") {
		return tok, true
	}
	if !slices.ContainsFunc(pathDirs, func(d string) bool { return strings.HasPrefix(tok, d) }) {
		return "", false
	}
	dir, base := path.Split(tok)
	if i := strings.IndexByte(base, '.'); i >= 0 && i+1 < len(base) && unicode.IsUpper(rune(base[i+1])) {
		return dir + base[:i], true
	}
	return tok, true
}

// docMakeTargets returns the make targets doc names, in order.
func docMakeTargets(doc string) []string {
	var targets []string
	for _, m := range backticked.FindAllStringSubmatch(doc, -1) {
		if words := strings.Fields(m[1]); len(words) > 1 && words[0] == "make" {
			targets = append(targets, words[1])
		}
	}
	for _, m := range makeLine.FindAllStringSubmatch(doc, -1) {
		targets = append(targets, m[1])
	}
	return targets
}

// pkgDecls is what one package's non-test files declare.
type pkgDecls struct {
	top     map[string]bool            // top-level names
	members map[string]map[string]bool // type name → its fields and methods
}

// declares reports whether the package declares name, or, when member
// is set, whether its type name has that field or method.
func (pd *pkgDecls) declares(name, member string) bool {
	if member != "" {
		return pd.members[name][member]
	}
	if pd.top[name] {
		return true
	}
	for _, ms := range pd.members {
		if ms[name] {
			return true
		}
	}
	return false
}

func (pd *pkgDecls) member(typ, name string) {
	if pd.members[typ] == nil {
		pd.members[typ] = map[string]bool{}
	}
	pd.members[typ][name] = true
}

// moduleDecls parses the non-test Go files of every non-main package
// in the module, testdata and the perfbench module aside, and returns
// their declarations by package name.
func moduleDecls() (map[string]*pkgDecls, error) {
	pkgs := map[string]*pkgDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (n == "testdata" || n == "perfbench" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil || f.Name.Name == "main" {
			return err
		}
		pd := pkgs[f.Name.Name]
		if pd == nil {
			pd = &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
			pkgs[f.Name.Name] = pd
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					pd.top[d.Name.Name] = true
				} else {
					pd.member(typeName(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							pd.top[n.Name] = true
						}
					case *ast.TypeSpec:
						pd.top[s.Name.Name] = true
						var fields *ast.FieldList
						switch t := s.Type.(type) {
						case *ast.StructType:
							fields = t.Fields
						case *ast.InterfaceType:
							fields = t.Methods
						}
						if fields == nil {
							continue
						}
						for _, fld := range fields.List {
							for _, n := range fld.Names {
								pd.member(s.Name.Name, n.Name)
							}
							if len(fld.Names) == 0 {
								pd.member(s.Name.Name, typeName(fld.Type))
							}
						}
					}
				}
			}
		}
		return nil
	})
	return pkgs, err
}

// typeName returns the name of a receiver's or embedded field's type.
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.Ident:
		return t.Name
	}
	return ""
}
