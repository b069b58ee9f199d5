package corpus_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tasm/corpus"
	"tasm/internal/dict"
	"tasm/internal/tree"
)

// TestTopKBatchEquivalence: a batch run must return, for every query,
// exactly what an individual TopK run returns — the batch only changes
// how many times the documents are read, never the rankings.
func TestTopKBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3; trial++ {
		c, err := corpus.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		scratch := dict.New()
		nDocs := 3 + rng.Intn(3)
		for i := 0; i < nDocs; i++ {
			doc := tree.Random(scratch, rng, tree.DefaultRandomConfig(40+rng.Intn(100)))
			if _, err := c.AddTree(fmt.Sprintf("doc%d", i), doc); err != nil {
				t.Fatal(err)
			}
		}
		queries := make([]*tree.Tree, 3+rng.Intn(3))
		for i := range queries {
			queries[i] = tree.Random(scratch, rng, tree.DefaultRandomConfig(3+rng.Intn(6)))
		}
		k := 1 + rng.Intn(6)

		var stats corpus.Stats
		batch, err := c.TopKBatch(context.Background(), queries, k, corpus.WithStats(&stats))
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(queries) {
			t.Fatalf("batch returned %d result sets for %d queries", len(batch), len(queries))
		}
		if stats.Scanned+stats.Skipped != nDocs {
			t.Errorf("trial %d: scanned %d + skipped %d != %d docs", trial, stats.Scanned, stats.Skipped, nDocs)
		}
		if stats.BaseDictLabels != c.DictLen() {
			t.Errorf("BaseDictLabels = %d, want %d", stats.BaseDictLabels, c.DictLen())
		}
		for i, q := range queries {
			single, err := c.TopK(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := matchesJSON(t, batch[i]), matchesJSON(t, single); got != want {
				t.Fatalf("trial %d query %d k=%d: batch != single\n %s\n %s", trial, i, k, got, want)
			}
		}

		// Exhaustive batch is the oracle for the batch-level document
		// skipping.
		exhaustive, err := c.TopKBatch(context.Background(), queries, k, corpus.WithoutFilter())
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			if got, want := matchesJSON(t, batch[i]), matchesJSON(t, exhaustive[i]); got != want {
				t.Fatalf("trial %d query %d: filtered batch != exhaustive batch\n %s\n %s", trial, i, got, want)
			}
		}
	}
}

// TestTopKBatchSharesOneOverlay: a batch's query-only labels end up in
// one request overlay, not in the corpus dictionary.
func TestTopKBatchSharesOneOverlay(t *testing.T) {
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddXML("d", strings.NewReader(`<a><b>x</b><c>y</c></a>`)); err != nil {
		t.Fatal(err)
	}
	base := c.DictLen()
	queries := make([]*tree.Tree, 4)
	for i := range queries {
		q, err := c.ParseBracket(fmt.Sprintf("{a{never-seen-%d}{shared-unknown}}", i))
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	var stats corpus.Stats
	if _, err := c.TopKBatch(context.Background(), queries, 2, corpus.WithStats(&stats)); err != nil {
		t.Fatal(err)
	}
	// 4 distinct per-query labels + 1 label shared across the batch.
	if stats.OverlayLabels != 5 {
		t.Errorf("OverlayLabels = %d, want 5 (4 distinct + 1 shared)", stats.OverlayLabels)
	}
	if c.DictLen() != base {
		t.Errorf("batch grew the corpus dictionary %d → %d", base, c.DictLen())
	}

	// Queries that already share one overlay over the corpus base are used
	// as they are, not re-interned into a second overlay: the run reports
	// that overlay, stray label included.
	ov := queries[0].Dict()
	ov.Intern("interned-but-unused")
	for i := range queries {
		queries[i] = tree.MustParse(ov, fmt.Sprintf("{a{never-seen-%d}}", i))
	}
	if _, err := c.TopKBatch(context.Background(), queries, 2, corpus.WithStats(&stats)); err != nil {
		t.Fatal(err)
	}
	// queries[0]'s two unknown labels, the stray one, and three new ones;
	// a re-interned batch would report its own four.
	if want := 2 + 1 + 3; stats.OverlayLabels != want {
		t.Errorf("OverlayLabels = %d, want %d: the queries' shared overlay was not used as is", stats.OverlayLabels, want)
	}
}
