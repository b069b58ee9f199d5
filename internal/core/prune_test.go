package core

// Equivalence tests of the candidate pruning pipeline: with every gate
// enabled (the default), results must be byte-identical to the unpruned
// scan for one query, for a batch, and split into ranges in the
// order-independent (strict-ties) form — and the pipeline's counters must
// report what fired.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/ranking"
	"tasm/internal/tree"
)

// unprunedOpts returns opts with every pipeline gate disabled (τ′ stays:
// it is the paper's algorithm, not part of the pipeline under test).
func unprunedOpts(opts Options) Options {
	opts.DisableHistogramBound = true
	opts.DisableEarlyAbort = true
	return opts
}

// mustEqualMatches fails unless the two rankings are byte-identical.
func mustEqualMatches(t *testing.T, ctx string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].Dist != want[i].Dist || got[i].Pos != want[i].Pos || got[i].Size != want[i].Size {
			t.Fatalf("%s: match %d = {%g %d %d}, want {%g %d %d}", ctx, i,
				got[i].Dist, got[i].Pos, got[i].Size,
				want[i].Dist, want[i].Pos, want[i].Size)
		}
	}
}

// rangesInto scans one query into r over the columns of doc, the
// candidates split into workers ranges.
func rangesInto(t testing.TB, q, doc *tree.Tree, r *ranking.Heap, posOffset, workers int, opts Options) error {
	return PostorderBatchColumnsInto([]*tree.Tree{q}, columnsOf(t, doc), nil, nil, []*ranking.Heap{r}, posOffset, workers, opts)
}

// randomInstance draws a (query, document, k) instance.
func randomInstance(rng *rand.Rand, d dict.Dict) (*tree.Tree, *tree.Tree, int) {
	q := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(10), MaxFanout: 3, Labels: 5})
	doc := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(150), MaxFanout: 4, Labels: 5})
	return q, doc, 1 + rng.Intn(6)
}

// TestPrunedVsUnprunedSequential: PostorderStream with the pipeline on
// equals the unpruned scan exactly, including positions and sizes.
func TestPrunedVsUnprunedSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 120; iter++ {
		d := dict.New()
		q, doc, k := randomInstance(rng, d)
		opts := Options{NoTrees: true}
		pruned, err := PostorderStream(q, postorder.FromTree(doc), k, opts)
		if err != nil {
			t.Fatal(err)
		}
		unpruned, err := PostorderStream(q, postorder.FromTree(doc), k, unprunedOpts(opts))
		if err != nil {
			t.Fatal(err)
		}
		mustEqualMatches(t, "sequential", pruned, unpruned)
	}
}

// TestPrunedVsUnprunedBatch: every query of a batched scan returns the
// unpruned ranking exactly.
func TestPrunedVsUnprunedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 60; iter++ {
		d := dict.New()
		_, doc, k := randomInstance(rng, d)
		queries := make([]*tree.Tree, 1+rng.Intn(3))
		for i := range queries {
			queries[i] = tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(8), MaxFanout: 3, Labels: 5})
		}
		opts := Options{NoTrees: true}
		pruned, err := PostorderBatch(queries, postorder.FromTree(doc), k, opts)
		if err != nil {
			t.Fatal(err)
		}
		unpruned, err := PostorderBatch(queries, postorder.FromTree(doc), k, unprunedOpts(opts))
		if err != nil {
			t.Fatal(err)
		}
		for qi := range queries {
			mustEqualMatches(t, "batch", pruned[qi], unpruned[qi])
		}
	}
}

// TestPrunedVsUnprunedParallelStrict: the order-independent split column
// scan (the corpus building block) is fully deterministic — byte-identical
// to the unpruned sequential strict scan for any number of ranges.
func TestPrunedVsUnprunedParallelStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 60; iter++ {
		d := dict.New()
		q, doc, k := randomInstance(rng, d)
		workers := 1 + rng.Intn(4)
		opts := Options{NoTrees: true}

		par := ranking.New(k)
		if err := rangesInto(t, q, doc, par, 7, workers, opts); err != nil {
			t.Fatal(err)
		}
		seq := ranking.New(k)
		if err := PostorderStreamInto(q, postorder.FromTree(doc), seq, 7, unprunedOpts(opts)); err != nil {
			t.Fatal(err)
		}
		mustEqualMatches(t, "parallel-strict", par.Sorted(), seq.Sorted())
	}
}

// TestPrunedVsUnprunedQuick is the quick.Check form over a wider seed
// space, comparing all three paths at once.
func TestPrunedVsUnprunedQuick(t *testing.T) {
	f := func(seed int64, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := dict.New()
		q, doc, k := randomInstance(rng, d)
		opts := Options{NoTrees: true}
		want, err := PostorderStream(q, postorder.FromTree(doc), k, unprunedOpts(opts))
		if err != nil {
			return false
		}
		got, err := PostorderStream(q, postorder.FromTree(doc), k, opts)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		par := ranking.New(k)
		if err := rangesInto(t, q, doc, par, 0, int(wRaw)%3+1, opts); err != nil {
			return false
		}
		parSorted := par.Sorted()
		seq := ranking.New(k)
		if err := PostorderStreamInto(q, postorder.FromTree(doc), seq, 0, unprunedOpts(opts)); err != nil {
			return false
		}
		seqSorted := seq.Sorted()
		if len(parSorted) != len(seqSorted) {
			return false
		}
		for i := range seqSorted {
			if parSorted[i] != seqSorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPruneStatsFire: on a document dominated by foreign-label records
// with one exact match, the histogram gate must skip candidates and the
// counters must add up.
func TestPruneStatsFire(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a{b}{c}}")
	root := tree.NewNode("root")
	root.AddChild(tree.NewNode("a", tree.NewNode("b"), tree.NewNode("c"))) // exact match early
	for i := 0; i < 60; i++ {
		root.AddChild(tree.NewNode("z", tree.NewNode("y", tree.NewNode("x"), tree.NewNode("w"))))
	}
	doc := tree.FromNode(d, root)

	stats := &PruneStats{}
	got, err := Postorder(q, doc, 1, Options{NoTrees: true, Prune: stats})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Dist != 0 {
		t.Fatalf("top-1 dist = %g, want 0", got[0].Dist)
	}
	hist, _, evaluated := stats.Snapshot()
	if hist == 0 {
		t.Error("histogram gate never fired on foreign-label records")
	}
	if evaluated == 0 {
		t.Error("no evaluation ran to completion")
	}

	// The split column scan must report through the same counters.
	pstats := &PruneStats{}
	heap := ranking.New(1)
	if err := rangesInto(t, q, doc, heap, 0, 2, Options{NoTrees: true, Prune: pstats}); err != nil {
		t.Fatal(err)
	}
	if h, _, e := pstats.Snapshot(); h+e == 0 {
		t.Error("split scan reported no pruning activity at all")
	}
}

// TestTEDAbortFires: a workload whose candidates share the query's label
// bag (so the histogram gate lets them through) and fit the τ′ size
// window, but whose structure mismatches from the first DP rows on, must
// trigger early aborts once the ranking holds an exact match.
func TestTEDAbortFires(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a{b{c{d{e}}}}}")
	root := tree.NewNode("root")
	// Exact match first: the ranking's k-th distance collapses to 0.
	root.AddChild(tree.NewNode("a", tree.NewNode("b", tree.NewNode("c", tree.NewNode("d", tree.NewNode("e"))))))
	for i := 0; i < 40; i++ {
		// Reversed chains: identical label bag, structurally distant.
		root.AddChild(tree.NewNode("e", tree.NewNode("d", tree.NewNode("c", tree.NewNode("b", tree.NewNode("a"))))))
	}
	doc := tree.FromNode(d, root)

	stats := &PruneStats{}
	pruned, err := Postorder(q, doc, 1, Options{NoTrees: true, Prune: stats})
	if err != nil {
		t.Fatal(err)
	}
	if _, abortedN, _ := stats.Snapshot(); abortedN == 0 {
		t.Error("early-abort TED never fired on far candidates")
	}
	unpruned, err := Postorder(q, doc, 1, unprunedOpts(Options{NoTrees: true}))
	if err != nil {
		t.Fatal(err)
	}
	mustEqualMatches(t, "ted-abort", pruned, unpruned)
}

// TestTEDGateCounted: records whose label bag as a whole covers the query
// pass the candidate-level histogram gate, but are too big for τ′ once an
// exact match is ranked, so the scan descends into their parts — each of
// which holds too few of the query's labels. Those evaluations must end at
// rung 0 of the bounded evaluation, counted in TEDGated inside TEDAborted,
// on every scan path; and the early-abort ablation flag, which means
// "unbounded DP", must switch that rung off with the others. The document
// also repeats one near match — the query with two leaves swapped, which
// holds every query label and so reaches the DP — so all but its first
// evaluation must be answered from the computer's memo, counted in
// TEDMemoHits inside the started evaluations and outside TEDGated.
func TestTEDGateCounted(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{m{a}{b}{c}{d}}")
	root := tree.NewNode("root")
	root.AddChild(tree.NewNode("m", tree.NewNode("a"), tree.NewNode("b"), tree.NewNode("c"), tree.NewNode("d")))
	// k = 2: the single-document scans keep the paper's τ′ boundary, under
	// which a 5-node subtree is evaluated only while the k-th distance is
	// above 0 — the first near match's 2 keeps the rest in play.
	const k, nearMatches = 2, 10
	for i := 0; i < nearMatches; i++ {
		root.AddChild(tree.NewNode("m", tree.NewNode("a"), tree.NewNode("b"), tree.NewNode("d"), tree.NewNode("c")))
	}
	for i := 0; i < 30; i++ {
		root.AddChild(tree.NewNode("rec",
			tree.NewNode("x", tree.NewNode("a"), tree.NewNode("b")),
			tree.NewNode("y", tree.NewNode("c"), tree.NewNode("d")),
			tree.NewNode("m")))
	}
	doc := tree.FromNode(d, root)

	scans := map[string]func(opts Options) ([]Match, error){
		"sequential": func(opts Options) ([]Match, error) { return Postorder(q, doc, k, opts) },
		"batch": func(opts Options) ([]Match, error) {
			out, err := PostorderBatch([]*tree.Tree{q}, postorder.FromTree(doc), k, opts)
			if err != nil {
				return nil, err
			}
			return out[0], nil
		},
		"parallel": func(opts Options) ([]Match, error) {
			r := ranking.New(k)
			err := rangesInto(t, q, doc, r, 0, 2, opts)
			return r.Sorted(), err
		},
	}
	for name, scan := range scans {
		stats := &PruneStats{}
		pruned, err := scan(Options{NoTrees: true, Prune: stats})
		if err != nil {
			t.Fatal(err)
		}
		gated, aborted := stats.TEDGated.Load(), stats.TEDAborted.Load()
		if gated == 0 {
			t.Errorf("%s: no evaluation ended at the view's label bag", name)
		}
		if gated > aborted {
			t.Errorf("%s: TEDGated %d not counted inside TEDAborted %d", name, gated, aborted)
		}
		// Each of the two ranges has a memo of its own, so each may compute
		// the near match once, and may scan whole records before the other
		// publishes the exact match's distance.
		hits, started := stats.TEDMemoHits.Load(), aborted+stats.Evaluated.Load()
		misses := uint64(1)
		if name == "parallel" {
			misses = 2
		}
		if hits < nearMatches-misses || (name != "parallel" && hits != nearMatches-1) {
			t.Errorf("%s: %d memo hits, want %d: every repeat of the near match and nothing else", name, hits, nearMatches-1)
		}
		if gated+hits > started {
			t.Errorf("%s: %d gated + %d memo hits exceed the %d evaluations started", name, gated, hits, started)
		}

		off := &PruneStats{}
		unpruned, err := scan(Options{NoTrees: true, Prune: off, DisableEarlyAbort: true})
		if err != nil {
			t.Fatal(err)
		}
		if g, a := off.TEDGated.Load(), off.TEDAborted.Load(); g != 0 || a != 0 {
			t.Errorf("%s: early abort disabled but %d evaluations gated, %d aborted", name, g, a)
		}
		if started := off.Evaluated.Load(); name != "parallel" && started != aborted+stats.Evaluated.Load() {
			t.Errorf("%s: %d evaluations started unbounded, %d bounded: the ladder must end evaluations, not skip them",
				name, started, aborted+stats.Evaluated.Load())
		}
		mustEqualMatches(t, name, pruned, unpruned)
	}
}

// FuzzPrunedVsUnpruned fuzzes the equivalence property over arbitrary
// well-formed documents and batches of 1…4 queries of mixed size: the
// full pipeline must reproduce the unpruned ranking exactly — under the
// strict margin (also over the document's columns, split into wRaw%6
// ranges) and under the paper's boundary — and both must agree with the
// exhaustive oracle.
func FuzzPrunedVsUnpruned(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x10, 0x22, 0x31, 0x04}, uint8(1), uint8(3), uint8(2), uint8(0))
	f.Add([]byte{0x05, 0x0a, 0x21, 0x00, 0x13}, uint8(2), uint8(5), uint8(1), uint8(1))
	f.Add([]byte{0x01, 0x01, 0x01, 0x71, 0x01, 0x72, 0x43}, uint8(3), uint8(2), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, qSel, kRaw, wRaw, width uint8) {
		d := dict.New()
		queries := fuzzQueries(d, qSel, width)
		labelIDs := make([]int, 8)
		for i := range labelIDs {
			labelIDs[i] = d.Intern(string(rune('a' + i)))
		}
		items := decodeDoc(d, labelIDs, data)
		if items == nil {
			t.Skip("empty document")
		}
		doc, err := postorder.BuildTree(d, postorder.NewSliceQueue(items))
		if err != nil {
			t.Fatalf("decodeDoc emitted an invalid stream: %v", err)
		}
		k := int(kRaw)%5 + 1
		opts := Options{NoTrees: true}

		strict := func(opts Options) [][]Match {
			ranks := make([]*ranking.Heap, len(queries))
			for i := range ranks {
				ranks[i] = ranking.New(k)
			}
			if err := streamScan(queries, postorder.NewSliceQueue(items), ranks, 3, true, opts); err != nil {
				t.Fatalf("strict scan failed: %v", err)
			}
			out := make([][]Match, len(ranks))
			for i, r := range ranks {
				out[i] = r.Sorted()
			}
			return out
		}
		pruned, unpruned := strict(opts), strict(unprunedOpts(opts))
		plain, err := PostorderBatch(queries, postorder.NewSliceQueue(items), k, opts)
		if err != nil {
			t.Fatalf("pruned scan failed: %v", err)
		}
		plainUnpruned, err := PostorderBatch(queries, postorder.NewSliceQueue(items), k, unprunedOpts(opts))
		if err != nil {
			t.Fatalf("unpruned scan rejected a well-formed stream: %v", err)
		}
		for i, q := range queries {
			mustEqualMatches(t, "fuzz-strict", pruned[i], unpruned[i])
			mustEqualNaive(t, "fuzz-strict", pruned[i], q, doc, k, 3, true)
			mustEqualMatches(t, "fuzz-plain", plain[i], plainUnpruned[i])
			mustEqualNaive(t, "fuzz-plain", plain[i], q, doc, k, 0, false)
		}
		cols, err := postorder.BuildColumns(postorder.NewSliceQueue(items), 0)
		if err != nil {
			t.Fatalf("decodeDoc emitted a stream the column builder refuses: %v", err)
		}
		ranks := make([]*ranking.Heap, len(queries))
		for i := range ranks {
			ranks[i] = ranking.New(k)
		}
		workers := int(wRaw) % 6
		if err := PostorderBatchColumnsInto(queries, cols, nil, nil, ranks, 3, workers, opts); err != nil {
			t.Fatalf("column scan (%d ranges) failed: %v", workers, err)
		}
		for i, r := range ranks {
			mustEqualMatches(t, fmt.Sprintf("fuzz-ranges-strict (%d ranges)", workers), r.Sorted(), unpruned[i])
		}
	})
}
