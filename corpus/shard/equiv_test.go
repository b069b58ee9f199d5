package shard_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/dict"
	"tasm/internal/tree"
)

// docSpec is one document in bracket notation.
type docSpec struct {
	name    string
	bracket string
}

// fixtureDocs is a corpus with near-duplicate records across documents so
// rankings contain cross-document distance ties — the case where merge
// order matters.
var fixtureDocs = []docSpec{
	{"d0", "{r{rec{a}{b}{c}}{rec{a}{b}}{x{y}}}"},
	{"d1", "{r{rec{a}{b}{c}}{rec{a}{d}}{z}}"},
	{"d2", "{r{rec{a}{b}{c}}{other{a}{b}{c}}}"},
	{"d3", "{r{rec{b}{c}}{rec{a}{b}{c}{d}}}"},
	{"d4", "{s{rec{a}{b}{c}}{rec{a}{b}{c}}}"},
	{"d5", "{s{unrelated{p}{q}}{w{v}}}"},
}

// addDoc ingests one bracket document parsed under a fresh dictionary
// (AddTree re-interns it into the corpus dictionary).
func addDoc(t testing.TB, c *corpus.Corpus, d docSpec) {
	t.Helper()
	if _, err := c.AddTree(d.name, tree.MustParse(dict.New(), d.bracket)); err != nil {
		t.Fatal(err)
	}
}

// buildShards splits docs over n shard corpora in contiguous runs and
// builds the union corpus holding all of them in the same concatenation
// order, so the group's (distance, shard, position) merge order equals
// the union corpus's (distance, manifest, position) order.
func buildShards(t testing.TB, docs []docSpec, n int) (union *corpus.Corpus, shards []*corpus.Corpus) {
	t.Helper()
	union = openCorpus(t)
	shards = make([]*corpus.Corpus, n)
	per := (len(docs) + n - 1) / n
	for i := range shards {
		shards[i] = openCorpus(t)
		lo, hi := i*per, min((i+1)*per, len(docs))
		for _, d := range docs[lo:hi] {
			addDoc(t, shards[i], d)
			addDoc(t, union, d)
		}
	}
	return union, shards
}

func openCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func searchers(cs []*corpus.Corpus) []corpus.Searcher {
	out := make([]corpus.Searcher, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

// normalize serializes matches to the comparison currency: everything
// except the shard-local document id and file paths, which necessarily
// differ between a shard and the merged corpus.
func normalize(t testing.TB, ms []corpus.Match) string {
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

// queryModes are the option combinations the equivalence tests pin.
var queryModes = []struct {
	name string
	opts []corpus.QueryOption
}{
	{"default", nil},
	{"noTrees", []corpus.QueryOption{corpus.WithoutTrees()}},
	{"exhaustive", []corpus.QueryOption{corpus.WithoutFilter()}},
	{"unpruned", []corpus.QueryOption{corpus.WithoutCandidatePruning()}},
}

// TestGroupTopKEquivalence is the acceptance criterion: a Group over ≥ 3
// local shards returns results identical to a single corpus holding the
// union of the shards' documents, for every option mode, every k, and
// queries including labels no shard has ever seen.
func TestGroupTopKEquivalence(t *testing.T) {
	union, shards := buildShards(t, fixtureDocs, 3)
	g := shard.NewGroup(searchers(shards)...)
	queries := []string{
		"{rec{a}{b}{c}}",
		"{rec{a}{b}}",
		"{r{rec{a}{b}{c}}}",
		"{rec{foreign}{labels}}", // labels unknown to every shard
		"{nope}",
	}
	ctx := context.Background()
	for _, qs := range queries {
		q := tree.MustParse(dict.New(), qs)
		for _, k := range []int{1, 3, 7, 25} {
			for _, mode := range queryModes {
				var us, gs corpus.Stats
				want, err := union.TopK(ctx, q, k, append(mode.opts[:len(mode.opts):len(mode.opts)], corpus.WithStats(&us))...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := g.TopK(ctx, q, k, append(mode.opts[:len(mode.opts):len(mode.opts)], corpus.WithStats(&gs))...)
				if err != nil {
					t.Fatal(err)
				}
				if nw, ng := normalize(t, want), normalize(t, got); nw != ng {
					t.Errorf("q=%s k=%d mode=%s:\n union %s\n group %s", qs, k, mode.name, nw, ng)
				}
				if gs.Scanned+gs.Skipped == 0 {
					t.Errorf("q=%s k=%d mode=%s: merged group stats saw no documents: %+v", qs, k, mode.name, gs)
				}
			}
		}
	}
}

// TestGroupTopKBatchEquivalence pins the batch path: group batch results
// equal the union corpus's batch results, which in turn equal per-query
// TopK.
func TestGroupTopKBatchEquivalence(t *testing.T) {
	union, shards := buildShards(t, fixtureDocs, 3)
	g := shard.NewGroup(searchers(shards)...)
	specs := []string{"{rec{a}{b}{c}}", "{rec{x}{y}}", "{other{a}{b}{c}}", "{alien{species}}"}
	queries := make([]*tree.Tree, len(specs))
	for i, s := range specs {
		queries[i] = tree.MustParse(dict.New(), s)
	}
	ctx := context.Background()
	for _, k := range []int{1, 4, 11} {
		want, err := union.TopKBatch(ctx, queries, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.TopKBatch(ctx, queries, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			if nw, ng := normalize(t, want[i]), normalize(t, got[i]); nw != ng {
				t.Errorf("k=%d query %d:\n union %s\n group %s", k, i, nw, ng)
			}
			single, err := g.TopK(ctx, queries[i], k)
			if err != nil {
				t.Fatal(err)
			}
			if ns, ng := normalize(t, single), normalize(t, got[i]); ns != ng {
				t.Errorf("k=%d query %d: group batch differs from group single:\n single %s\n batch %s", k, i, ns, ng)
			}
		}
	}
}

// TestGroupWithDocs: a selection is split over the shards holding the
// named documents, unknown names fail with the single-corpus error text,
// and results match the union corpus under the same selection.
func TestGroupWithDocs(t *testing.T) {
	union, shards := buildShards(t, fixtureDocs, 3)
	g := shard.NewGroup(searchers(shards)...)
	q := tree.MustParse(dict.New(), "{rec{a}{b}{c}}")
	ctx := context.Background()

	sel := []string{"d0", "d3", "d5"} // spans shards 0, 1 and 2
	want, err := union.TopK(ctx, q, 5, corpus.WithDocs(sel...))
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.TopK(ctx, q, 5, corpus.WithDocs(sel...))
	if err != nil {
		t.Fatal(err)
	}
	if nw, ng := normalize(t, want), normalize(t, got); nw != ng {
		t.Errorf("selection:\n union %s\n group %s", nw, ng)
	}

	if _, err := g.TopK(ctx, q, 5, corpus.WithDocs("d0", "ghost")); err == nil ||
		!strings.Contains(err.Error(), `unknown document "ghost"`) {
		t.Errorf("unknown selection: err = %v, want unknown document", err)
	}
}

// TestGroupDocsAndGeneration: Docs concatenates in shard order and
// Generation changes when any shard's document set does.
func TestGroupDocsAndGeneration(t *testing.T) {
	_, shards := buildShards(t, fixtureDocs, 3)
	g := shard.NewGroup(searchers(shards)...)
	docs, err := g.Docs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(fixtureDocs) {
		t.Fatalf("group lists %d docs, want %d", len(docs), len(fixtureDocs))
	}
	for i, d := range docs {
		if d.Name != fixtureDocs[i].name {
			t.Errorf("doc %d is %q, want %q (shard-order concatenation)", i, d.Name, fixtureDocs[i].name)
		}
	}
	gen := g.Generation()
	addDoc(t, shards[1], docSpec{"late", "{r{late{doc}}}"})
	if g.Generation() == gen {
		t.Error("group generation unchanged after a shard ingest")
	}
	if err := shards[1].Remove("late"); err != nil {
		t.Fatal(err)
	}
	if g.Generation() == gen {
		t.Error("group generation unchanged after a shard removal (sum of bumped shard generations)")
	}
}

// TestGroupShardFailureAttributed: a failing shard fails the whole query
// with a *corpus.ScanError naming the shard, and the document the shard
// named, reachable through errors.As.
func TestGroupShardFailureAttributed(t *testing.T) {
	_, shards := buildShards(t, fixtureDocs, 3)
	members := searchers(shards)
	members[1] = &failingSearcher{} // fails with a ScanError for document "broken"
	g := shard.NewGroup(members...)
	q := tree.MustParse(dict.New(), "{rec{a}{b}{c}}")
	_, err := g.TopK(context.Background(), q, 3, corpus.WithoutFilter())
	if err == nil {
		t.Fatal("failing shard: want error, got nil")
	}
	var se *corpus.ScanError
	if !errors.As(err, &se) {
		t.Fatalf("error %v does not unwrap to *corpus.ScanError", err)
	}
	if se.Shard != "shard1" {
		t.Errorf("ScanError.Shard = %q, want shard1 (the failing shard)", se.Shard)
	}
	if se.Doc != "broken" {
		t.Errorf("ScanError.Doc = %q, want %q", se.Doc, "broken")
	}
}

// TestEmptyGroup: the zero group and groups over empty shards answer with
// no matches, like an empty corpus.
func TestEmptyGroup(t *testing.T) {
	q := tree.MustParse(dict.New(), "{a}")
	var g shard.Group
	ms, err := g.TopK(context.Background(), q, 3)
	if err != nil || len(ms) != 0 {
		t.Fatalf("zero group: %v matches, err %v", ms, err)
	}
	g2 := shard.NewGroup(openCorpus(t), openCorpus(t))
	ms, err = g2.TopK(context.Background(), q, 3)
	if err != nil || len(ms) != 0 {
		t.Fatalf("empty shards: %v matches, err %v", ms, err)
	}
}
