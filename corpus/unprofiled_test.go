package corpus

// White-box tests for the degraded path where a document has no usable
// profile (partial ingest, deleted or corrupt profile file): queries must
// fall back to scanning that document unfiltered — with exact results and
// the degradation counted in Stats — instead of crashing.

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// brokenProfileCorpus builds a three-document corpus, breaks the middle
// document's profile file as directed, and reopens the corpus from disk.
func brokenProfileCorpus(t *testing.T, breakProfile func(t *testing.T, path string)) *Corpus {
	t.Helper()
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{
		"a": "{r{x{p}{q}}{y}}",
		"b": "{r{x{p}{q}}{z{p}}}",
		"c": "{r{w}{y{q}}}",
	}
	var victim DocInfo
	for _, name := range []string{"a", "b", "c"} {
		tr, err := c.ParseBracket(docs[name])
		if err != nil {
			t.Fatal(err)
		}
		info, err := c.AddTree(name, tr)
		if err != nil {
			t.Fatal(err)
		}
		if name == "b" {
			victim = info
		}
	}
	breakProfile(t, filepath.Join(dir, victim.Profile))
	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after breaking a profile: %v (profiles are a derived index; the corpus must stay available)", err)
	}
	st := reopened.snapshot()
	for slot, d := range st.docs {
		if d.ID == victim.ID && st.index().totals[slot] >= 0 {
			t.Fatalf("profile of %q unexpectedly loaded after breaking it", victim.Name)
		}
	}
	return reopened
}

func checkUnprofiledTopK(t *testing.T, c *Corpus) {
	t.Helper()
	q, err := c.ParseBracket("{x{p}{q}}")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	got, err := c.TopK(context.Background(), q, 4, WithStats(&stats))
	if err != nil {
		t.Fatalf("TopK with missing profile: %v", err)
	}
	if stats.Unprofiled != 1 {
		t.Errorf("Stats.Unprofiled = %d, want 1", stats.Unprofiled)
	}
	if stats.Scanned != 3 {
		t.Errorf("Stats.Scanned = %d, want 3 (an unprofiled document must never be skipped)", stats.Scanned)
	}
	want, err := c.TopK(context.Background(), q, 4, WithoutFilter())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("filtered scan returned %d matches, unfiltered %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Doc.ID != w.Doc.ID || g.Pos != w.Pos || g.Dist != w.Dist || g.Size != w.Size {
			t.Errorf("match %d: filtered %+v != unfiltered %+v", i, g, w)
		}
	}
}

func TestTopKMissingProfileFile(t *testing.T) {
	c := brokenProfileCorpus(t, func(t *testing.T, path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	})
	checkUnprofiledTopK(t, c)
}

// TestTopKCorruptProfileFile: a profile file that EXISTS but holds
// garbage is corruption, not a partial ingest — since PR 8 the Open-time
// scrub quarantines the document instead of degrading it, and the
// survivors answer exactly.
func TestTopKCorruptProfileFile(t *testing.T) {
	c := brokenProfileCorpus(t, func(t *testing.T, path string) {
		if err := os.WriteFile(path, []byte("not a profile"), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if got := c.Quarantined(); got != 1 {
		t.Fatalf("Quarantined() = %d, want 1", got)
	}
	if c.Len() != 2 {
		t.Fatalf("corpus has %d docs after quarantine, want 2", c.Len())
	}
	q, err := c.ParseBracket("{x{p}{q}}")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	got, err := c.TopK(context.Background(), q, 4, WithStats(&stats))
	if err != nil {
		t.Fatalf("TopK after quarantine: %v", err)
	}
	if stats.Quarantined != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1", stats.Quarantined)
	}
	if stats.Unprofiled != 0 {
		t.Errorf("Stats.Unprofiled = %d, want 0 (quarantined docs are out of the serving set, not degraded)", stats.Unprofiled)
	}
	if stats.Scanned+stats.Skipped != 2 {
		t.Errorf("scanned %d + skipped %d, want 2 docs considered", stats.Scanned, stats.Skipped)
	}
	for _, m := range got {
		if m.Doc.Name == "b" {
			t.Errorf("quarantined document %q appeared in results", m.Doc.Name)
		}
	}
}

// TestPlanNilProfileDirect covers the in-memory variant: even when a
// document's profile vanishes from the index while the corpus is open
// (the invariant a partial ingest would break), plan must not read
// postings it does not have.
func TestPlanNilProfileDirect(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]string{"a": "{r{x}{y}}", "b": "{r{x{p}}}"} {
		tr, err := c.ParseBracket(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddTree(name, tr); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the first document from the index and add it back without a
	// profile; queries read the prebuilt snapshot.
	c.mu.Lock()
	st := c.snap
	c.snap = &snapshot{
		docs:     st.docs,
		profiles: &lazyIndex{from: st.index().next(st.docs, st.docs[1:], nil), fromDocs: st.docs[1:]},
		stores:   st.stores,
		base:     st.base,
	}
	c.mu.Unlock()

	q, err := c.ParseBracket("{x}")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if _, err := c.TopK(context.Background(), q, 2, WithStats(&stats)); err != nil {
		t.Fatalf("TopK with nil profile entry: %v", err)
	}
	if stats.Unprofiled != 1 {
		t.Errorf("Stats.Unprofiled = %d, want 1", stats.Unprofiled)
	}
}
