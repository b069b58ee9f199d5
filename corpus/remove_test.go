package corpus_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tasm/corpus"
)

// TestRemoveTombstonesAndGCs: Remove drops the manifest entry without
// reusing ids, bumps the generation, garbage-collects the files, and
// queries answer from the remaining documents — across a reopen.
func TestRemoveTombstonesAndGCs(t *testing.T) {
	dir := t.TempDir()
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.AddXML("a", strings.NewReader(`<r><rec><x>1</x></rec></r>`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddXML("b", strings.NewReader(`<r><rec><y>2</y></rec></r>`)); err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()

	if err := c.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if c.Generation() == gen {
		t.Error("generation unchanged after Remove; caches would serve deleted documents")
	}
	if c.Len() != 1 {
		t.Fatalf("corpus holds %d docs after Remove, want 1", c.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, a.Store)); !os.IsNotExist(err) {
		t.Errorf("store %s survived Remove (err %v)", a.Store, err)
	}

	// Removing again: ErrNotFound.
	if err := c.Remove("a"); !errors.Is(err, corpus.ErrNotFound) {
		t.Errorf("second Remove returned %v, want ErrNotFound", err)
	}

	// Queries answer from the survivor only.
	q, err := c.ParseBracket("{rec{x{1}}}")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := c.TopK(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Doc.Name == "a" {
			t.Fatalf("removed document still ranked: %+v", m)
		}
	}

	// Ids are never reused: the next ingest continues past the tombstone.
	c2, err := corpus.Open(dir) // reopen exercises the rewritten manifest
	if err != nil {
		t.Fatal(err)
	}
	// The generation persists across restarts (2 ingests + 1 removal), so
	// external caches keyed on it can never collide with a pre-restart
	// value for a different document set.
	if got := c2.Generation(); got != c.Generation() {
		t.Errorf("reopened generation %d, want %d (persisted in the manifest)", got, c.Generation())
	}
	d3, err := c2.AddXML("c", strings.NewReader(`<r><rec><z>3</z></rec></r>`))
	if err != nil {
		t.Fatal(err)
	}
	if d3.ID <= a.ID+1 {
		t.Errorf("new doc id %d reuses tombstoned id space (removed doc had %d)", d3.ID, a.ID)
	}
}
