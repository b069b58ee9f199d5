package core

// The column scan's oracle is the stream scan: over any document the
// column builder accepts, the kernel run over a prb.Cursor on the whole
// document and the stream scan — a prb.Buffer yielding each candidate,
// the kernel run over a cursor on its window — must agree on every
// result byte, on the pruning counters, and on the exact sequence of
// candidates and τ′-pruned subtrees.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/prb"
	"tasm/internal/qtrace"
	"tasm/internal/race"
	"tasm/internal/ranking"
	"tasm/internal/tree"
	"tasm/internal/work"
)

// traceProbe records every probe callback in order.
type traceProbe struct{ events []int }

func (p *traceProbe) Candidate(size int)       { p.events = append(p.events, 1, size) }
func (p *traceProbe) Pruned(size int)          { p.events = append(p.events, 2, size) }
func (p *traceProbe) RelevantSubtree(size int) { p.events = append(p.events, 3, size) }

// scanOutcome is everything a scan is compared on.
type scanOutcome struct {
	results string
	prune   work.Counts
	events  []int
}

func outcome(ranks []*ranking.Heap, prune work.Counts, probe *traceProbe) scanOutcome {
	var b strings.Builder
	for _, r := range ranks {
		for _, m := range r.Sorted() {
			fmt.Fprintf(&b, "%g@%d/%d%v;", m.Dist, m.Pos, m.Size, m.Tree)
		}
		b.WriteByte('|')
	}
	var o scanOutcome
	o.results = b.String()
	o.prune = prune
	o.events = probe.events
	return o
}

func (o scanOutcome) mustEqual(t *testing.T, ctx string, ring scanOutcome) {
	t.Helper()
	if o.results != ring.results {
		t.Fatalf("%s: results differ\n columns %s\n ring    %s", ctx, o.results, ring.results)
	}
	if o.prune != ring.prune {
		t.Fatalf("%s: work counts columns %+v, ring %+v", ctx, o.prune, ring.prune)
	}
	if fmt.Sprint(o.events) != fmt.Sprint(ring.events) {
		t.Fatalf("%s: candidate/pruned/evaluated sequence differs\n columns %v\n ring    %v", ctx, o.events, ring.events)
	}
}

// nested is the definition BuildColumns must implement, checked the slow
// way: every size lies in [1, position] and no node's subtree interval
// starts inside an earlier node's.
func nested(items []postorder.Item) bool {
	for i, it := range items {
		if it.Size < 1 || it.Size > i+1 {
			return false
		}
		for j := i - it.Size + 1; j < i; j++ {
			if j-items[j].Size+1 < i-it.Size+1 {
				return false
			}
		}
	}
	return true
}

// fuzzQueries parses width%4+1 queries of mixed size, so the τ_i of a
// batch differ and the kernel's descent to each query's own τ runs.
func fuzzQueries(d dict.Dict, qSel, width uint8) []*tree.Tree {
	brackets := []string{"{a}", "{a{b}}", "{a{b}{c}}", "{b{a{c}}{d}}", "{c{c{c}}}"}
	queries := make([]*tree.Tree, int(width)%4+1)
	for i := range queries {
		queries[i] = tree.MustParse(d, brackets[(int(qSel)+3*i)%len(brackets)])
	}
	return queries
}

// mustEqualNaive compares a scan's ranking with the exhaustive oracle's:
// byte-identical under the strict margin (which never discards a tie),
// distance for distance under the paper's boundary (where Definition 1
// permits either representative of a tie at the k-th distance).
func mustEqualNaive(t *testing.T, ctx string, got []Match, q, doc *tree.Tree, k, posOffset int, strict bool) {
	t.Helper()
	want, err := Naive(q, doc, k, Options{NoTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i].Pos += posOffset
		if !strict && i < len(got) {
			want[i].Pos, want[i].Size = got[i].Pos, got[i].Size
		}
	}
	mustEqualMatches(t, ctx+" vs Naive", got, want)
}

func FuzzColumnsVsStream(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x10, 0x22, 0x31, 0x04}, uint8(1), uint8(6), uint8(2), uint8(0), uint16(0), uint8(0))
	f.Add([]byte{0x05, 0x0a, 0x21, 0x00, 0x13}, uint8(2), uint8(0), uint8(1), uint8(1), uint16(0), uint8(1))
	f.Add([]byte{0x01, 0x01, 0x01, 0x71, 0x01, 0x72}, uint8(3), uint8(200), uint8(4), uint8(3|32), uint16(0), uint8(3))
	f.Add([]byte{0x01, 0x11, 0x01, 0x21, 0x02}, uint8(0), uint8(2), uint8(0), uint8(4), uint16(0x0002), uint8(0))    // size 0
	f.Add([]byte{0x01, 0x11, 0x01, 0x21, 0x02}, uint8(0), uint8(2), uint8(0), uint8(4), uint16(0x0901), uint8(2))    // size > position
	f.Add([]byte{0x01, 0x11, 0x01, 0x11, 0x02}, uint8(1), uint8(3), uint8(1), uint8(5|32), uint16(0x0203), uint8(1)) // crossing

	// A batch of two steps over a candidate without a probe: a skip per query.
	f.Add([]byte{0x30, 0x00, 0x30, 0x00, 0x30, 0x00, 0x04}, uint8(0x3c), uint8(0xa2), uint8(0x4d), uint8(1|32), uint16(0), uint8(0x4d))
	f.Fuzz(func(t *testing.T, data []byte, qSel, tauRaw, kRaw, flags uint8, mut uint16, width uint8) {
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
		if flags&1 != 0 && items[len(items)-1].Size == len(items) && len(items) > 1 {
			items = items[:len(items)-1] // drop the root: a forest of its children
		}
		if flags&4 != 0 {
			items[int(mut&0xff)%len(items)].Size = int(mut >> 8) // one size overwritten: usually malformed
		}

		cols, err := postorder.BuildColumns(postorder.NewSliceQueue(items), 0)
		if want := nested(items); (err == nil) != want {
			t.Fatalf("BuildColumns accepted=%v a document whose sizes nest=%v (err %v)\n%v", err == nil, want, err, items)
		}
		if err != nil {
			return // refused: it never reaches a kernel
		}

		k := int(kRaw)%5 + 1
		strict := flags&2 != 0
		anyTau := flags&32 != 0
		opts := Options{NoTrees: flags&8 != 0, DisableIntermediateBound: flags&16 != 0}

		// The kernel over a batch of 1…4 queries, each at its own τ inside
		// the shared pass at the largest — Theorem 3's, or (anyTau) arbitrary
		// ones from 1 to past the document size, where only the two scans
		// can be compared — in both tie modes. The columns are scanned with
		// the candidate gate on each route: labelNodes nil walks, all zero
		// reads the postings for every query through a candidate set the
		// scan caches. Without a probe the column scan steps over gated runs
		// of candidates (prb.Cursor.Skip) instead of visiting each, and must
		// still count every skip: it is held to the stream scan without a
		// probe, whose cursor holds one candidate at a time.
		walk, postings := []int(nil), make([]int, len(queries))
		kernel := func(columns, probed bool, labelNodes []int) ([]*ranking.Heap, scanOutcome) {
			probe := &traceProbe{}
			ranks := make([]*ranking.Heap, len(queries))
			for i := range ranks {
				ranks[i] = ranking.New(k + i%2)
			}
			o := opts
			if probed {
				o.Probe = probe
			}
			sc, err := o.scratch(queries, ranks)
			if err != nil {
				t.Fatal(err)
			}
			if anyTau {
				sc.tauMax = 0
				for i := range sc.states {
					sc.states[i].tau = 1 + (int(tauRaw)+5*i)%(len(items)+3)
					sc.tauMax = max(sc.tauMax, sc.states[i].tau)
				}
			}
			if !columns {
				var counts work.Counts
				o.Scratch, o.Prune = sc, &counts
				if err := streamScan(queries, postorder.NewSliceQueue(items), ranks, 1000, strict, o); err != nil {
					t.Fatalf("stream: %v", err)
				}
				return ranks, outcome(ranks, counts, probe)
			}
			var cache *prb.CandidateCache
			if labelNodes != nil {
				cache = new(prb.CandidateCache)
			}
			cur := sc.cur
			cur.Reset(cols, cache, sc.tauMax, sc.hists, labelNodes)
			if want := map[bool]int{true: len(queries)}[labelNodes != nil]; cur.PostingRows() != want {
				t.Fatalf("%d of %d bound rows read the postings, want %d", cur.PostingRows(), len(queries), want)
			}
			if err := scanCandidates(cur, sc, 1000, strict, &o); err != nil {
				t.Fatalf("columns: %v", err)
			}
			return ranks, outcome(ranks, sc.counts, probe)
		}
		ctx := fmt.Sprintf("batch of %d k=%d strict=%v anyTau=%v", len(queries), k, strict, anyTau)
		ranks, fromColumns := kernel(true, true, walk)
		_, fromPostings := kernel(true, true, postings)
		_, fromRing := kernel(false, true, nil)
		fromColumns.mustEqual(t, ctx+" walk", fromRing)
		fromPostings.mustEqual(t, ctx+" postings", fromRing)
		_, skippingWalk := kernel(true, false, walk)
		_, skippingPostings := kernel(true, false, postings)
		_, fromRingUnprobed := kernel(false, false, nil)
		skippingWalk.mustEqual(t, ctx+" walk, no probe", fromRingUnprobed)
		skippingPostings.mustEqual(t, ctx+" postings, no probe", fromRingUnprobed)
		if doc, err := postorder.BuildTree(d, postorder.NewSliceQueue(items)); err == nil && !anyTau {
			for i, q := range queries {
				mustEqualNaive(t, fmt.Sprintf("%s query %d", ctx, i), ranks[i].Sorted(), q, doc, ranks[i].K(), 1000, strict)
			}
		}

		// The exported entry point over the whole batch against the strict
		// stream scan: every result byte, trees included.
		want := make([]*ranking.Heap, len(queries))
		for i := range want {
			want[i] = ranking.New(k)
		}
		if err := streamScan(queries, postorder.NewSliceQueue(items), want, 7, true, opts); err != nil {
			t.Fatal(err)
		}
		// The first scan fills the document's candidate cache, the second
		// reads the set it built.
		cache := new(prb.CandidateCache)
		for _, pass := range []string{"filling", "reading"} {
			got := make([]*ranking.Heap, len(queries))
			for i := range got {
				got[i] = ranking.New(k)
			}
			if err := PostorderBatchColumnsInto(queries, cols, cache, postings, got, 7, opts); err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				mustEqualTrees(t, fmt.Sprintf("PostorderBatchColumnsInto, %s the cache, query %d", pass, i), got[i].Sorted(), want[i].Sorted())
			}
		}
	})
}

// TestColumnKernelsZeroAlloc pins the scan kernel's steady state: with a
// cursor (or ring), view and computers warm, a whole pass of the kernel
// over a document — for one query and for batches of two and four —
// allocates nothing, not per candidate and not per document, under a live
// cancellable context carrying a live trace, the daemon's request shape.
// Every measured pass takes each branch of an evaluation — gated by the
// window's label bag, answered by the memo, and run through the dynamic
// program on a filled view — on both scans: the column cursor over the
// whole document, and the stream scan, whose ring buffer hands the
// cursor one candidate window at a time. The column scan runs with no
// candidate cache, with one that holds the scan's τ (filled by the
// warm-up pass), and with one whose every slot holds another threshold;
// with the cached set it takes both routes of the candidate gate — a
// document where half the records carry query labels walks, one where a
// tenth do reads the label postings — and otherwise walks.
func TestColumnKernelsZeroAlloc(t *testing.T) {
	d := dict.New()
	queries := []*tree.Tree{
		tree.MustParse(d, "{rec{a{b}}{c}{d{e}}{f}}"),
		tree.MustParse(d, "{rec{a}{b}{c}{d}{e}{f}}"),
		tree.MustParse(d, "{rec{c{d}}{e}}"),
		tree.MustParse(d, "{rec{a}{a}{b{c}}}"),
	}
	// Records the queries match interleaved with ones sharing no label
	// with them, so the histogram gate fires as well as the evaluation:
	// one in two, or one in ten. Most matching records are random, in
	// more shapes than a memo holds, so the dynamic program keeps running
	// once it is full; one in four is the same record, which the memo
	// answers; and the larger ones exceed a query's τ′, so that the kernel
	// descends to windows the label bag gates.
	document := func(every int) []postorder.Item {
		rng := rand.New(rand.NewSource(int64(every)))
		labels := []string{"a", "b", "c", "d", "e", "f", "y"}
		var record func(label string, nodes int) *tree.Node
		record = func(label string, nodes int) *tree.Node {
			n := tree.NewNode(label)
			for nodes > 1 {
				c := 1 + rng.Intn(nodes-1)
				n.AddChild(record(labels[rng.Intn(len(labels))], c))
				nodes -= c
			}
			return n
		}
		same := tree.MustParse(d, "{rec{a}{b}{c}{y}}")
		root := tree.NewNode("root")
		for i := 0; i < 300*every; i++ {
			switch {
			case i%(4*every) == 0:
				root.AddChild(same.Node(same.Root()))
			case i%every == 0:
				root.AddChild(record("rec", 3+rng.Intn(12)))
			default:
				root.AddChild(tree.NewNode("x", tree.NewNode("y"), tree.NewNode("z"), tree.NewNode("w")))
			}
		}
		return postorder.Items(tree.FromNode(d, root))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := qtrace.New()
	defer qtrace.Release(tr)

	for _, doc := range []struct {
		route    string
		items    []postorder.Item
		postings bool
	}{{"walk", document(2), false}, {"postings", document(10), true}} {
		cols, err := postorder.BuildColumns(postorder.NewSliceQueue(doc.items), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			for _, source := range []string{"uncached", "cache hit", "cache full", "ring"} {
				opts := Options{NoTrees: true, CT: 1, Ctx: qtrace.NewContext(ctx, tr)}
				ranks := make([]*ranking.Heap, n)
				for i := range ranks {
					ranks[i] = ranking.New(50)
				}
				sc, err := opts.scratch(queries[:n], ranks)
				if err != nil {
					t.Fatal(err)
				}
				var cache *prb.CandidateCache
				if source == "cache hit" || source == "cache full" {
					cache = new(prb.CandidateCache)
				}
				if source == "cache full" {
					for i := 1; i <= prb.CandidateSlots; i++ {
						new(prb.Cursor).Reset(cols, cache, sc.tauMax+i, nil, nil)
					}
				}
				counts := queryLabelNodes(cols, queries[:n])
				stream := &rewindQueue{items: doc.items}
				sc.buf = prb.New(stream, sc.tauMax)
				pass := func() {
					var err error
					if source == "ring" {
						stream.pos = 0
						sc.buf.Reset(stream, sc.tauMax)
						err = scanStream(sc.buf, sc, 0, true, &opts)
					} else {
						sc.cur.Reset(cols, cache, sc.tauMax, sc.hists, counts)
						err = scanCandidates(sc.cur, sc, 0, true, &opts)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				pass() // warm: grow the sources and view, fill the rankings and memo
				what := fmt.Sprintf("%s document, %d queries, %s", doc.route, n, source)
				if source != "ring" {
					if sc.cur.Missed() != (source == "cache full") {
						t.Fatalf("%s: Missed = %v", what, sc.cur.Missed())
					}
					if want := map[bool]int{true: n}[doc.postings && source == "cache hit"]; sc.cur.PostingRows() != want {
						t.Fatalf("%s: %d bound rows read postings, want %d", what, sc.cur.PostingRows(), want)
					}
				}
				sc.counts = work.Counts{}
				pass()
				c := sc.counts
				if c.HistSkipped == 0 || c.TEDGated == 0 || c.TEDMemoHits == 0 || c.ViewFills == 0 {
					t.Fatalf("%s: a warm pass skipped %d candidates, gated %d windows, answered %d from the memo and filled %d views: the pin must cover every branch", what, c.HistSkipped, c.TEDGated, c.TEDMemoHits, c.ViewFills)
				}
				if started := c.Evaluated + c.TEDAborted; c.ViewFills != started-c.TEDGated-c.TEDMemoHits {
					t.Fatalf("%s: %d view fills for %d evaluations, %d gated and %d from the memo", what, c.ViewFills, started, c.TEDGated, c.TEDMemoHits)
				}
				if race.Enabled {
					continue // allocation counts are not meaningful under -race
				}
				if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
					t.Errorf("kernel pass of the %s allocates %.1f objects per document in steady state, want 0", what, allocs)
				}
			}
		}
	}
}

// rewindQueue is a postorder queue over items that a test rewinds between
// scans without allocating.
type rewindQueue struct {
	items []postorder.Item
	pos   int
}

func (q *rewindQueue) Next() (postorder.Item, error) {
	if q.pos >= len(q.items) {
		return postorder.Item{}, io.EOF
	}
	q.pos++
	return q.items[q.pos-1], nil
}

// queryLabelNodes counts, per query, the nodes of cols that carry one of
// its labels — what a corpus plan reads off a document's profile.
func queryLabelNodes(cols *postorder.Columns, queries []*tree.Tree) []int {
	counts := make([]int, len(queries))
	for i, q := range queries {
		seen := map[int]bool{}
		for _, id := range q.LabelIDs() {
			if !seen[id] {
				seen[id] = true
				counts[i] += len(cols.Postings(id))
			}
		}
	}
	return counts
}

// TestGatedWindowPushesNothing: a window rung 0 gates adds nothing to the
// ranking, even one that is not full — its finite bound a cutoff
// published by a cooperating scan — on both candidate sources. The query
// {a{b}} at that bound 0.5 admits the one candidate {x{a}{b}}, skips its
// root by τ′ and gates both leaves, each lacking one query label.
func TestGatedWindowPushesNothing(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a{b}}")
	doc := tree.MustParse(d, "{x{a}{b}}")
	cols, err := postorder.BuildColumns(postorder.FromTree(doc), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, source := range []string{"columns", "ring"} {
		r := ranking.New(10)
		cut := ranking.NewCutoff()
		cut.Tighten(0.5)
		r.PublishTo(cut)
		var counts work.Counts
		opts := Options{Prune: &counts}
		if source == "columns" {
			err = PostorderBatchColumnsInto([]*tree.Tree{q}, cols, nil, nil, []*ranking.Heap{r}, 0, opts)
		} else {
			err = PostorderStreamInto(q, postorder.FromTree(doc), r, 0, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if counts.TEDGated != 2 || counts.Evaluated+counts.TEDAborted != 2 {
			t.Fatalf("%s: %+v, want the two leaves gated and nothing else evaluated", source, counts)
		}
		if r.Len() != 0 {
			t.Errorf("%s: gated windows pushed %v", source, r.Sorted())
		}
	}
}

// columnsOf builds the resident columns of doc.
func columnsOf(t testing.TB, doc *tree.Tree) *postorder.Columns {
	t.Helper()
	cols, err := postorder.BuildColumns(postorder.FromTree(doc), 0)
	if err != nil {
		t.Fatal(err)
	}
	return cols
}

// columnsTopK answers queries over cols with fresh rankings of k.
func columnsTopK(queries []*tree.Tree, cols *postorder.Columns, k int, opts Options) ([][]Match, error) {
	ranks := make([]*ranking.Heap, len(queries))
	for i := range ranks {
		ranks[i] = ranking.New(k)
	}
	if err := PostorderBatchColumnsInto(queries, cols, nil, nil, ranks, 0, opts); err != nil {
		return nil, err
	}
	out := make([][]Match, len(ranks))
	for i, r := range ranks {
		out[i] = r.Sorted()
	}
	return out, nil
}

// mustEqualTrees fails unless both rankings carry the same subtrees.
func mustEqualTrees(t *testing.T, ctx string, got, want []Match) {
	t.Helper()
	mustEqualMatches(t, ctx, got, want)
	for i := range want {
		if fmt.Sprint(got[i].Tree) != fmt.Sprint(want[i].Tree) {
			t.Fatalf("%s: match %d tree %v, want %v", ctx, i, got[i].Tree, want[i].Tree)
		}
	}
}

func TestColumnsValidation(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a}")
	cols := columnsOf(t, tree.MustParse(d, "{a{b}}"))
	if _, err := columnsTopK([]*tree.Tree{nil}, cols, 1, Options{}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := columnsTopK(nil, cols, 1, Options{}); err == nil {
		t.Error("empty batch accepted")
	}
	if err := PostorderBatchColumnsInto([]*tree.Tree{q}, cols, nil, nil, []*ranking.Heap{ranking.New(1), ranking.New(1)}, 0, Options{}); err == nil {
		t.Error("more rankings than queries accepted")
	}
	if err := PostorderBatchColumnsInto([]*tree.Tree{q}, cols, nil, []int{1, 2}, []*ranking.Heap{ranking.New(1)}, 0, Options{}); err == nil {
		t.Error("more label-node counts than queries accepted")
	}
}

func TestColumnsEmptyDocument(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a}")
	cols, err := postorder.BuildColumns(postorder.NewSliceQueue(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := columnsTopK([]*tree.Tree{q}, cols, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 0 {
		t.Errorf("empty document returned %d matches", len(got[0]))
	}
}

// TestCandidatesCounted: the Candidates count is the number of
// Probe.Candidate calls — cand(T, τmax), once per candidate — on the ring
// scan and the column scan, whether a column scan visits each candidate
// (probed) or steps over gated runs.
func TestCandidatesCounted(t *testing.T) {
	d := dict.New()
	root := tree.NewNode("root")
	for i := 0; i < 300; i++ {
		if i%9 == 0 {
			root.AddChild(tree.NewNode("rec", tree.NewNode("a"), tree.NewNode("b")))
		} else {
			root.AddChild(tree.NewNode("x", tree.NewNode("y", tree.NewNode("z"))))
		}
	}
	doc := tree.FromNode(d, root)
	cols := columnsOf(t, doc)
	queries := []*tree.Tree{tree.MustParse(d, "{rec{a}{b}}"), tree.MustParse(d, "{rec{b}}")}
	for n := 1; n <= len(queries); n++ {
		batch := queries[:n]
		probe := &countingProbe{}
		var ring work.Counts
		ranks := []*ranking.Heap{ranking.New(2), ranking.New(2)}[:n]
		if err := streamScan(batch, postorder.FromTree(doc), ranks, 0, true, Options{Probe: probe, Prune: &ring}); err != nil {
			t.Fatal(err)
		}
		want := uint64(len(probe.candidates))
		if want == 0 || ring.Candidates != want {
			t.Fatalf("batch of %d: ring scan counted %d candidates, the probe saw %d", n, ring.Candidates, want)
		}
		for _, probed := range []bool{true, false} {
			var c work.Counts
			opts := Options{Prune: &c}
			if probed {
				opts.Probe = &countingProbe{}
			}
			if _, err := columnsTopK(batch, cols, 2, opts); err != nil {
				t.Fatal(err)
			}
			if c.Candidates != want || c.HistSkipped == 0 {
				t.Errorf("batch of %d, probed %v: %d candidates (the probe saw %d), %d gated",
					n, probed, c.Candidates, want, c.HistSkipped)
			}
		}
	}
}

// TestColumnsSkipGatedRuns: without a probe, a column scan steps over the
// runs of candidates the histogram gate rejects (prb.Cursor.Skip), and
// counts and answers exactly what the ring-buffer scan, which visits every
// candidate, counts and answers.
func TestColumnsSkipGatedRuns(t *testing.T) {
	d := dict.New()
	root := tree.NewNode("root")
	for i := 0; i < 400; i++ {
		if i%7 == 0 {
			root.AddChild(tree.NewNode("rec", tree.NewNode("a"), tree.NewNode("b")))
		} else {
			root.AddChild(tree.NewNode("x", tree.NewNode("y"), tree.NewNode("z")))
		}
	}
	doc := tree.FromNode(d, root)
	cols := columnsOf(t, doc)
	queries := []*tree.Tree{
		tree.MustParse(d, "{rec{a}{b}}"),
		tree.MustParse(d, "{rec{b}}"),
		tree.MustParse(d, "{rec{a}{a}{c}}"),
	}
	const k = 3
	for _, n := range []int{1, 3} {
		batch := queries[:n]
		var colStats, ringStats work.Counts
		got, err := columnsTopK(batch, cols, k, Options{Prune: &colStats})
		if err != nil {
			t.Fatal(err)
		}
		ring := make([]*ranking.Heap, n)
		for i := range ring {
			ring[i] = ranking.New(k)
		}
		if err := streamScan(batch, postorder.FromTree(doc), ring, 0, true, Options{Prune: &ringStats}); err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			mustEqualTrees(t, fmt.Sprintf("batch of %d, query %d: columns vs ring", n, i), got[i], ring[i].Sorted())
		}
		if colStats != ringStats || colStats.HistSkipped == 0 {
			t.Fatalf("batch of %d: work counts columns %+v, ring %+v; the gate must fire", n, colStats, ringStats)
		}
	}
}
