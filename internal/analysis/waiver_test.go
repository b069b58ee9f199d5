package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// maxWaivers is the number of //tasm:allow waivers the module's non-test
// code outside internal/analysis may carry. A waiver is a liability: it
// asserts, unchecked, that a flagged construct never runs on a hot path
// or never allocates in steady state. The bound only ever goes down: a
// change that removes waivers lowers it to the new count, and a new
// waiver must retire an old one.
const maxWaivers = 25

// walkNonTest parses every non-test Go file of the module — bench/
// included, internal/analysis (whose tests exercise the directive and
// whose flag plumbing probes flag values) and testdata excluded — with
// its comments, and hands each to visit.
func walkNonTest(t *testing.T, visit func(fset *token.FileSet, f *ast.File)) {
	t.Helper()
	root := moduleRoot(t)
	skip := filepath.Join(root, "internal", "analysis")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == skip || path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaiverRatchet counts the //tasm:allow directives in the comments of
// every non-test Go file of the module and fails above maxWaivers, naming
// each one.
func TestWaiverRatchet(t *testing.T) {
	var waivers []string
	walkNonTest(t, func(fset *token.FileSet, f *ast.File) {
		for _, g := range f.Comments {
			for _, c := range g.List {
				if strings.HasPrefix(c.Text, "//tasm:allow ") {
					waivers = append(waivers, fset.Position(c.Pos()).String())
				}
			}
		}
	})
	if len(waivers) == 0 {
		t.Fatal("no //tasm:allow waiver found: the walk or the directive changed")
	}
	if len(waivers) > maxWaivers {
		t.Errorf("%d //tasm:allow waivers in non-test code, at most %d allowed; retire one for each new one:\n%s",
			len(waivers), maxWaivers, strings.Join(waivers, "\n"))
	}
}

// TestNoCapabilityProbes fails on any type assertion to an anonymous
// interface (x.(interface{ M() })) in non-test code. Such a probe asks a
// value at run time for a method its declared type does not promise, so
// what a backend must provide is written nowhere a compiler checks: a
// method the caller needs belongs in the interface it holds (as
// corpus.Searcher's Docs and NumDocs), or the caller holds the concrete
// type (as tasmd's server holds its *corpus.Corpus).
func TestNoCapabilityProbes(t *testing.T) {
	var probes []string
	walkNonTest(t, func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if ta, ok := n.(*ast.TypeAssertExpr); ok {
				if _, anon := ta.Type.(*ast.InterfaceType); anon {
					probes = append(probes, fset.Position(ta.Pos()).String())
				}
			}
			return true
		})
	})
	if len(probes) > 0 {
		t.Errorf("%d type assertions to an anonymous interface in non-test code; declare the method on the interface the caller holds, or hold the concrete type:\n%s",
			len(probes), strings.Join(probes, "\n"))
	}
}
