package corpus_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tasm/corpus"
	"tasm/internal/dict"
	"tasm/internal/tree"
)

// matchesJSON serializes matches to canonical bytes, the "byte-identical"
// comparison currency of the equivalence tests.
func matchesJSON(t *testing.T, ms []corpus.Match) string {
	t.Helper()
	type jm struct {
		Doc  string  `json:"doc"`
		Pos  int     `json:"pos"`
		Dist float64 `json:"dist"`
		Size int     `json:"size"`
		Tree string  `json:"tree,omitempty"`
	}
	out := make([]jm, len(ms))
	for i, m := range ms {
		out[i] = jm{Doc: m.Doc.Name, Pos: m.Pos, Dist: m.Dist, Size: m.Size}
		if m.Tree != nil {
			out[i].Tree = m.Tree.String()
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestIngestManifestTopKRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddXML("articles", strings.NewReader(
		`<dblp><article><author>smith</author><title>trees</title></article><book><title>graphs</title></book></dblp>`)); err != nil {
		t.Fatal(err)
	}
	doc2, err := c.AddXML("more", strings.NewReader(
		`<dblp><article><author>jones</author><title>edit distance</title></article></dblp>`))
	if err != nil {
		t.Fatal(err)
	}
	if doc2.ID != 2 || doc2.RootLabel != "dblp" || doc2.Nodes < 5 {
		t.Fatalf("unexpected manifest entry: %+v", doc2)
	}
	q, err := c.ParseXML(strings.NewReader(`<article><author>smith</author><title>trees</title></article>`))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.TopK(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d matches, want 3", len(got))
	}
	if got[0].Dist != 0 || got[0].Doc.Name != "articles" {
		t.Fatalf("best match should be the exact subtree in 'articles': %+v", got[0])
	}
	if got[0].Tree == nil {
		t.Fatal("matched subtree not materialized")
	}
	want := matchesJSON(t, got)

	// Reopen from disk: manifest + profiles must reload, and the same
	// query must return byte-identical results.
	c2, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 2 {
		t.Fatalf("reopened corpus has %d docs, want 2", c2.Len())
	}
	q2, err := c2.ParseXML(strings.NewReader(`<article><author>smith</author><title>trees</title></article>`))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := c2.TopK(context.Background(), q2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if j := matchesJSON(t, got2); j != want {
		t.Fatalf("reopened corpus answers differently:\n got %s\nwant %s", j, want)
	}
}

// TestFilterSkipsAndMatchesExhaustive is the acceptance scenario: a
// crafted corpus where the pq-gram prefilter must skip at least one
// document, with results byte-identical to the exhaustive scan.
func TestFilterSkipsAndMatchesExhaustive(t *testing.T) {
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// "near" contains the query verbatim; "far" shares no labels with the
	// query, so its label-histogram bound |Q| exceeds any distance the
	// near document leaves in the ranking.
	if _, err := c.AddXML("near", strings.NewReader(
		`<r><a><b>x</b><c>y</c></a><a><b>x</b></a></r>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddXML("far", strings.NewReader(
		`<zoo><pen><yak>z</yak></pen><pen><emu>w</emu></pen></zoo>`)); err != nil {
		t.Fatal(err)
	}
	q, err := c.ParseXML(strings.NewReader(`<a><b>x</b><c>y</c></a>`))
	if err != nil {
		t.Fatal(err)
	}

	var stats corpus.Stats
	filtered, err := c.TopK(context.Background(), q, 2, corpus.WithStats(&stats))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped < 1 {
		t.Fatalf("filter skipped %d documents, want ≥ 1 (scanned %d)", stats.Skipped, stats.Scanned)
	}
	exhaustive, err := c.TopK(context.Background(), q, 2, corpus.WithoutFilter())
	if err != nil {
		t.Fatal(err)
	}
	fj, ej := matchesJSON(t, filtered), matchesJSON(t, exhaustive)
	if fj != ej {
		t.Fatalf("filtered and exhaustive results differ:\n filtered   %s\n exhaustive %s", fj, ej)
	}
	if filtered[0].Dist != 0 {
		t.Fatalf("query occurs verbatim, want distance 0, got %+v", filtered[0])
	}
}

// TestEquivalenceRandom cross-checks filtered, exhaustive and unpruned
// scans over random corpora: all must return byte-identical rankings for
// every query.
func TestEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		c, err := corpus.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		scratch := dict.New()
		nDocs := 3 + rng.Intn(3)
		for i := 0; i < nDocs; i++ {
			doc := tree.Random(scratch, rng, tree.DefaultRandomConfig(40+rng.Intn(120)))
			if _, err := c.AddTree(fmt.Sprintf("doc%d", i), doc); err != nil {
				t.Fatal(err)
			}
		}
		for qi := 0; qi < 3; qi++ {
			q := tree.Random(scratch, rng, tree.DefaultRandomConfig(3+rng.Intn(6)))
			qc, err := c.ImportTree(q)
			if err != nil {
				t.Fatal(err)
			}
			k := 1 + rng.Intn(8)
			filtered, err := c.TopK(context.Background(), qc, k)
			if err != nil {
				t.Fatal(err)
			}
			exhaustive, err := c.TopK(context.Background(), qc, k, corpus.WithoutFilter())
			if err != nil {
				t.Fatal(err)
			}
			unpruned, err := c.TopK(context.Background(), qc, k, corpus.WithoutCandidatePruning())
			if err != nil {
				t.Fatal(err)
			}
			fj, ej, uj := matchesJSON(t, filtered), matchesJSON(t, exhaustive), matchesJSON(t, unpruned)
			if fj != ej {
				t.Fatalf("trial %d query %d k=%d: filtered != exhaustive\n %s\n %s", trial, qi, k, fj, ej)
			}
			if uj != fj {
				t.Fatalf("trial %d query %d k=%d: candidate pruning changed results\n %s\n %s", trial, qi, k, uj, fj)
			}
		}
	}
}

// TestPruneStatsReported: TopK must surface the candidate pruning
// pipeline's counters through Stats, and disabling the pipeline must
// zero the gate counters while keeping results identical (checked in
// TestEquivalenceRandom).
func TestPruneStatsReported(t *testing.T) {
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	scratch := dict.New()
	for i := 0; i < 3; i++ {
		doc := tree.Random(scratch, rng, tree.DefaultRandomConfig(150))
		if _, err := c.AddTree(fmt.Sprintf("doc%d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	// One more document repeats the query itself: no gate can skip an exact
	// match, so every copy is evaluated, and every copy after the first is
	// answered from the memo.
	const copies = 10
	qRaw := tree.Random(scratch, rng, tree.DefaultRandomConfig(5))
	records := tree.NewNode("records")
	for i := 0; i < copies; i++ {
		records.AddChild(qRaw.Node(qRaw.Root()))
	}
	if _, err := c.AddTree("records", tree.FromNode(scratch, records)); err != nil {
		t.Fatal(err)
	}
	q, err := c.ImportTree(qRaw)
	if err != nil {
		t.Fatal(err)
	}
	var stats corpus.Stats
	if _, err := c.TopK(context.Background(), q, 2, corpus.WithStats(&stats)); err != nil {
		t.Fatal(err)
	}
	if stats.Evaluated == 0 {
		t.Error("Stats.Evaluated = 0: no subtree evaluation was recorded")
	}
	if stats.TEDGated > stats.TEDAborted {
		t.Errorf("Stats.TEDGated = %d is not counted inside TEDAborted = %d", stats.TEDGated, stats.TEDAborted)
	}
	if started := stats.Evaluated + stats.TEDAborted; stats.TEDMemoHits < copies-1 || stats.TEDGated+stats.TEDMemoHits > started {
		t.Errorf("Stats.TEDMemoHits = %d with %d gated of %d started: want ≥ %d hits, and gated and hits disjoint parts of started",
			stats.TEDMemoHits, stats.TEDGated, started, copies-1)
	}
	var off corpus.Stats
	if _, err := c.TopK(context.Background(), q, 2, corpus.WithStats(&off), corpus.WithoutCandidatePruning()); err != nil {
		t.Fatal(err)
	}
	if off.HistSkipped != 0 || off.TEDAborted != 0 || off.TEDGated != 0 {
		t.Errorf("gates disabled but counters fired: hist=%d aborted=%d gated=%d", off.HistSkipped, off.TEDAborted, off.TEDGated)
	}
	if off.Evaluated == 0 {
		t.Error("unpruned run recorded no evaluations")
	}
}

func TestSelectionAndErrors(t *testing.T) {
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddXML("a", strings.NewReader(`<x><y>1</y></x>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddXML("b", strings.NewReader(`<x><z>2</z></x>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddXML("a", strings.NewReader(`<x/>`)); err == nil {
		t.Fatal("duplicate name must be rejected")
	}
	q, err := c.ParseBracket("{x{y{1}}}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.TopK(context.Background(), q, 0); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := c.TopK(context.Background(), q, 1, corpus.WithDocs("nope")); err == nil {
		t.Fatal("unknown document selection must be rejected")
	}
	// A query from a foreign dictionary is re-interned through a request
	// overlay and answered like any other — the overlay makes its ids
	// commensurable with the corpus ids without touching the shared
	// dictionary.
	foreign, err := tree.Parse(dict.New(), "{x}")
	if err != nil {
		t.Fatal(err)
	}
	native, err := c.ParseBracket("{x}")
	if err != nil {
		t.Fatal(err)
	}
	fm, err := c.TopK(context.Background(), foreign, 3)
	if err != nil {
		t.Fatalf("foreign-dictionary query failed: %v", err)
	}
	nm, err := c.TopK(context.Background(), native, 3)
	if err != nil {
		t.Fatal(err)
	}
	if matchesJSON(t, fm) != matchesJSON(t, nm) {
		t.Fatalf("foreign-dictionary query diverged:\n %s\n %s", matchesJSON(t, fm), matchesJSON(t, nm))
	}
	only, err := c.TopK(context.Background(), q, 10, corpus.WithDocs("b"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range only {
		if m.Doc.Name != "b" {
			t.Fatalf("selection leaked document %q", m.Doc.Name)
		}
	}
}

// TestConcurrentQueriesAndIngest exercises the server workload: many
// queries racing with ingests and removals must stay consistent (run with
// -race). The queries build each snapshot's profile index while the
// writer derives the next snapshot's from it.
func TestConcurrentQueriesAndIngest(t *testing.T) {
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddXML("base", strings.NewReader(`<r><a><b>x</b></a></r>`)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q, err := c.ParseBracket("{a{b{x}}}")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.TopK(context.Background(), q, 2, corpus.WithoutTrees()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("extra%d", i)
			if _, err := c.AddXML(name, strings.NewReader(`<r><c><d>y</d></c></r>`)); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 1 {
				if err := c.Remove(fmt.Sprintf("extra%d", i-1)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if c.Len() != 6 {
		t.Fatalf("corpus has %d docs, want 6", c.Len())
	}
	if c.Generation() != 16 {
		t.Fatalf("generation %d, want 16", c.Generation())
	}
}
