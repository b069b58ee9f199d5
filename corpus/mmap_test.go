package corpus_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"tasm/corpus"
	"tasm/internal/qtrace"
	"tasm/internal/race"
	"tasm/internal/tree"
)

// randBracket emits a random bracket-notation tree of roughly n nodes
// over a small label universe, the same corpus shape the benchmarks use.
func randBracket(rng *rand.Rand, n int) string {
	var b strings.Builder
	var emit func(budget int) int
	emit = func(budget int) int {
		fmt.Fprintf(&b, "{l%d", rng.Intn(12))
		used := 1
		for used < budget {
			c := 1 + rng.Intn(budget-used)
			used += emit(c)
		}
		b.WriteByte('}')
		return used
	}
	emit(n)
	return b.String()
}

// buildMmapCorpus populates dir with docs random documents so the same
// directory can be reopened under different load modes.
func buildMmapCorpus(t *testing.T, dir string, docs int) {
	t.Helper()
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < docs; i++ {
		tr, err := c.ParseBracket(randBracket(rng, 40+rng.Intn(40)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddTree(fmt.Sprintf("doc%02d", i), tr); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMmapFallbackEquivalence pins the contract between the two ways a
// store can be loaded: mapped or heap-loaded (WithMmap). Both answer every
// query byte-identically, single and batch, and do the same pruning work.
func TestMmapFallbackEquivalence(t *testing.T) {
	dir := t.TempDir()
	buildMmapCorpus(t, dir, 8)

	type variant struct {
		name string
		c    *corpus.Corpus
	}
	var variants []variant
	for _, mmap := range []bool{true, false} {
		c, err := corpus.Open(dir, corpus.WithMmap(mmap))
		if err != nil {
			t.Fatal(err)
		}
		// 12 bytes per node (label, size, posting), 8 per distinct label
		// and 4 per document: between 1 and randBracket's 12 labels each.
		nodes, docs := int64(totalNodes(c)), int64(c.Len())
		if got := c.ColumnBytes(); got < 12*nodes+12*docs || got > 12*nodes+100*docs {
			t.Fatalf("ColumnBytes = %d for %d nodes in %d documents, want 12 per node + 12..100 per document", got, nodes, docs)
		}
		variants = append(variants, variant{fmt.Sprintf("mmap=%v", mmap), c})
	}

	queries := []string{"{l0{l1}{l2}}", "{l3{l4{l5}}{l6}}", "{l7}", "{l1{l1{l1}}}"}
	ctx := context.Background()
	// answers renders one variant's answer to everything: each query
	// alone at two k, then the batch, with the pruning counters.
	answers := func(c *corpus.Corpus) []string {
		var out []string
		var batch []*tree.Tree
		for _, qs := range queries {
			q, err := c.ParseBracket(qs)
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, q)
			for _, k := range []int{1, 5} {
				var st corpus.Stats
				ms, err := c.TopK(ctx, q, k, corpus.WithStats(&st))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprintf("%s k=%d: %s skipped=%d aborted=%d evaluated=%d",
					qs, k, matchesJSON(t, ms), st.HistSkipped, st.TEDAborted, st.Evaluated))
			}
		}
		var st corpus.Stats
		rs, err := c.TopKBatch(ctx, batch, 4, corpus.WithStats(&st))
		if err != nil {
			t.Fatal(err)
		}
		for i, ms := range rs {
			out = append(out, fmt.Sprintf("batch %d: %s", i, matchesJSON(t, ms)))
		}
		return append(out, fmt.Sprintf("batch skipped=%d aborted=%d evaluated=%d", st.HistSkipped, st.TEDAborted, st.Evaluated))
	}
	want := answers(variants[0].c)
	for _, v := range variants[1:] {
		for i, got := range answers(v.c) {
			if got != want[i] {
				t.Fatalf("%s disagrees with %s\n got  %s\n want %s", v.name, variants[0].name, got, want[i])
			}
		}
	}
}

func totalNodes(c *corpus.Corpus) int {
	n := 0
	for _, d := range c.Docs() {
		n += d.Nodes
	}
	return n
}

// TestMappedBytes checks the serving-tier accounting: a mapped corpus
// reports its store bytes, the heap fallback reports zero, and removal
// shrinks the figure.
func TestMappedBytes(t *testing.T) {
	dir := t.TempDir()
	buildMmapCorpus(t, dir, 4)

	heap, err := corpus.Open(dir, corpus.WithMmap(false))
	if err != nil {
		t.Fatal(err)
	}
	if got := heap.MappedBytes(); got != 0 {
		t.Fatalf("WithMmap(false) corpus reports %d mapped bytes, want 0", got)
	}

	mapped, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := mapped.MappedBytes()
	if before <= 0 {
		t.Skip("platform without mmap support: MappedBytes is 0 by design")
	}
	if err := mapped.Remove("doc00"); err != nil {
		t.Fatal(err)
	}
	if after := mapped.MappedBytes(); after >= before {
		t.Fatalf("MappedBytes did not shrink after Remove: before=%d after=%d", before, after)
	}
}

// TestTopKAllocBudget pins the corpus-level allocation contract of this
// change: a TopK over an already-open corpus must not scale allocations
// with document size — no per-query file opens, label re-interning, or
// decoding — even with a live trace attached. The bound is a
// regression tripwire with headroom over the measured steady state, not
// a precise count.
func TestTopKAllocBudget(t *testing.T) {
	dir := t.TempDir()
	buildMmapCorpus(t, dir, 6)
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.ParseBracket("{l0{l1}{l2}}")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Warm pools and the frozen dictionary read-through path.
	if _, err := c.TopK(ctx, q, 3); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		tr := qtrace.New()
		if _, err := c.TopK(qtrace.NewContext(ctx, tr), q, 3); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 400
	t.Logf("TopK allocs per query: %.0f (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("TopK allocates %.0f objects per query, budget %d", allocs, budget)
	}
}

// TestQueryAllocsIndependentOfDocCount pins the plan's flat bounds slab:
// a run over 180 small documents allocates what the same run over 4 does,
// give or take a small constant, for one query and for a batch of four —
// nothing in planning or scanning allocates per document.
func TestQueryAllocsIndependentOfDocCount(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ctx := context.Background()
	allocs := func(docs, queries int) float64 {
		dir := t.TempDir()
		buildMmapCorpus(t, dir, docs)
		c, err := corpus.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		qs := make([]*tree.Tree, queries)
		for i := range qs {
			if qs[i], err = c.ParseBracket(fmt.Sprintf("{l%d{l1}{l2}}", i)); err != nil {
				t.Fatal(err)
			}
		}
		run := func() {
			if _, err := c.TopKBatch(ctx, qs, 3, corpus.WithoutTrees()); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools
		return testing.AllocsPerRun(10, run)
	}
	for _, queries := range []int{1, 4} {
		few, many := allocs(4, queries), allocs(180, queries)
		t.Logf("%d queries: %.0f allocs over 4 documents, %.0f over 180", queries, few, many)
		if many > few+16 {
			t.Errorf("%d queries: %.0f allocs over 180 documents vs %.0f over 4: something allocates per document", queries, many, few)
		}
	}
}

// TestRangeScratchPerRun: a query whose document scans are split into
// ranges builds the ranges' scratch — distance computers, memos, views —
// once per run, not once per document. The bytes a 2-range TopKBatch
// allocates grow with the number of documents it scans by far less than
// one computer — a memo alone is 56 KiB — so a range's memo also spans the
// whole run; for one query and for a batch of four.
func TestRangeScratchPerRun(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	ctx := context.Background()
	bytesPerQuery := func(docs, queries int) float64 {
		dir := t.TempDir()
		buildMmapCorpus(t, dir, docs)
		c, err := corpus.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		qs := make([]*tree.Tree, queries)
		for i := range qs {
			if qs[i], err = c.ParseBracket(fmt.Sprintf("{l%d{l1}{l2}}", i)); err != nil {
				t.Fatal(err)
			}
		}
		var st corpus.Stats
		run := func() {
			if _, err := c.TopKBatch(ctx, qs, 3, corpus.WithWorkers(2), corpus.WithoutFilter(), corpus.WithoutTrees(), corpus.WithStats(&st)); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools
		if st.Scanned != docs {
			t.Fatalf("%d documents scanned of %d", st.Scanned, docs)
		}
		const rounds = 10
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	for _, queries := range []int{1, 4} {
		few, many := bytesPerQuery(4, queries), bytesPerQuery(40, queries)
		perDoc := (many - few) / 36
		t.Logf("2 ranges, %d queries: %.1f KB per run over 4 documents, %.1f KB over 40: %.2f KB per document", queries, few/1e3, many/1e3, perDoc/1e3)
		if perDoc > 4<<10 {
			t.Errorf("a 2-range run of %d queries allocates %.1f KB per scanned document: the ranges' scratch is rebuilt per document", queries, perDoc/1e3)
		}
	}
}
