package pmuoutage

import (
	"os"
	"path"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// TestDocsNamePathsThatExist: every repository path and make target
// that DESIGN.md and README.md name exists, so the map cannot drift
// from the tree. A path is an entry of README's package tree, the
// first word of a backticked span that starts with one of the
// top-level source directories or is a file name with a '/' in it, or
// a command a run line names (./cmd/<name> or ./examples/<name>,
// fenced blocks included). A make target is the word after make in a
// backticked span or at the start of a line, and the Makefile must
// define it.
func TestDocsNamePathsThatExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
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
	}
}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	treeEntry  = regexp.MustCompile(`^[│ ]*[├└]── (\S+)`)
	runTarget  = regexp.MustCompile(`\./((?:cmd|examples)/[A-Za-z0-9_-]+)`)
	makeRule   = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	makeLine   = regexp.MustCompile(`(?m)^make ([A-Za-z0-9_-]+)`)
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
