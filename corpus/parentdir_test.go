package corpus

// Tests for a corpus directory as earlier versions wrote it
// (testdata/parent): a profile file beside every store and a "profile"
// key per document in the manifest. It must open and answer exactly as a
// corpus of the same documents written today, whatever state its profile
// files are in — they are never read, only swept.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parentDocs are the documents testdata/parent holds, in ingest order.
var parentDocs = []struct{ name, s string }{
	{"a", "{r{x{p}{q}}{y}}"},
	{"b", "{r{x{p}{q}}{z{p}}}"},
	{"c", "{r{w}{y{q}}}"},
	{"dblp", "{dblp{article{author{Ann}}{title{Trees}}{year{2010}}}{article{author{Bob}}{author{Ann}}{title{Grams}}}{inproceedings{author{Bob}}{title{Trees}}}}"},
}

// renderAnswers runs a fixed set of queries against c and renders every
// match — document entry, position, distance, size, subtree — and the
// documents each run scanned and skipped, as text.
func renderAnswers(t *testing.T, c *Corpus) string {
	t.Helper()
	var b strings.Builder
	for _, s := range []string{"{x{p}{q}}", "{article{author{Ann}}{title}}", "{r{y}}", "{unknown{p}}"} {
		for _, k := range []int{1, 3, 40} {
			q, err := c.ParseBracket(s)
			if err != nil {
				t.Fatal(err)
			}
			var stats Stats
			ms, err := c.TopK(context.Background(), q, k, WithStats(&stats))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s k=%d scanned %d skipped %d\n", s, k, stats.Scanned, stats.Skipped)
			for _, m := range ms {
				fmt.Fprintf(&b, "  %+v %d %g %d %s\n", m.Doc, m.Pos, m.Dist, m.Size, m.Tree)
			}
		}
	}
	return b.String()
}

// checkParentDirectory copies testdata/parent, lets damage alter the
// copy, opens it and checks that it answers as a fresh corpus of
// parentDocs does, that no profile file is left, and that the next commit
// writes a manifest without "profile" keys.
func checkParentDirectory(t *testing.T, damage func(dir string) error) {
	t.Helper()
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "parent"), dir)
	if err := damage(dir); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != len(parentDocs) || c.Quarantined() != 0 {
		t.Fatalf("Len = %d, Quarantined = %d; want %d and 0", c.Len(), c.Quarantined(), len(parentDocs))
	}
	if left, _ := filepath.Glob(filepath.Join(dir, docsDir, "*.profile")); len(left) > 0 {
		t.Errorf("profile files left after Open: %v", left)
	}

	fresh, err := Open(t.TempDir(), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range parentDocs {
		tr, err := fresh.ParseBracket(d.s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.AddTree(d.name, tr); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := renderAnswers(t, c), renderAnswers(t, fresh); got != want {
		t.Errorf("the parent's directory answers\n%s\na fresh corpus of its documents answers\n%s", got, want)
	}

	if err := c.Remove("c"); err != nil {
		t.Fatal(err)
	}
	man, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(man), `"profile"`) {
		t.Errorf("a commit kept the profile keys:\n%s", man)
	}
}

func TestOpenParentDirectory(t *testing.T) {
	checkParentDirectory(t, func(string) error { return nil })
}

// TestTopKMissingProfileFile: a profile file lost from such a directory
// costs nothing — the document is profiled from its store like the rest.
func TestTopKMissingProfileFile(t *testing.T) {
	checkParentDirectory(t, func(dir string) error {
		return os.Remove(filepath.Join(dir, docsDir, "2.profile"))
	})
}

// TestTopKCorruptProfileFile: a damaged profile file quarantines nothing,
// since no profile file is read.
func TestTopKCorruptProfileFile(t *testing.T) {
	checkParentDirectory(t, func(dir string) error {
		return os.WriteFile(filepath.Join(dir, docsDir, "2.profile"), []byte("not a profile"), 0o644)
	})
}
