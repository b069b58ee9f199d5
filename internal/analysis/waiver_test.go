package analysis_test

import (
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
const maxWaivers = 27

// TestWaiverRatchet counts the //tasm:allow directives in the comments of
// every non-test Go file of the module — bench/ included, internal/analysis
// (whose tests exercise the directive) excluded — and fails above
// maxWaivers, naming each one.
func TestWaiverRatchet(t *testing.T) {
	root := moduleRoot(t)
	skip := filepath.Join(root, "internal", "analysis")
	fset := token.NewFileSet()
	var waivers []string
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
		for _, g := range f.Comments {
			for _, c := range g.List {
				if strings.HasPrefix(c.Text, "//tasm:allow ") {
					waivers = append(waivers, fset.Position(c.Pos()).String())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(waivers) == 0 {
		t.Fatal("no //tasm:allow waiver found: the walk or the directive changed")
	}
	if len(waivers) > maxWaivers {
		t.Errorf("%d //tasm:allow waivers in non-test code, at most %d allowed; retire one for each new one:\n%s",
			len(waivers), maxWaivers, strings.Join(waivers, "\n"))
	}
}
