package core

// The column scan's oracle is the ring-buffer scan: over any document the
// column builder accepts, the same kernel run over a prb.Cursor and over
// a prb.Buffer must agree on every result byte, on the pruning counters,
// and on the exact sequence of candidates and τ′-pruned subtrees.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/prb"
	"tasm/internal/qtrace"
	"tasm/internal/race"
	"tasm/internal/ranking"
	"tasm/internal/tree"
)

// traceProbe records every probe callback in order.
type traceProbe struct{ events []int }

func (p *traceProbe) Candidate(size int)       { p.events = append(p.events, 1, size) }
func (p *traceProbe) Pruned(size int)          { p.events = append(p.events, 2, size) }
func (p *traceProbe) RelevantSubtree(size int) { p.events = append(p.events, 3, size) }

// scanOutcome is everything a scan is compared on.
type scanOutcome struct {
	results string
	prune   [3]uint64
	events  []int
}

func outcome(ranks []*ranking.Heap, prune *PruneStats, probe *traceProbe) scanOutcome {
	var b strings.Builder
	for _, r := range ranks {
		for _, m := range r.Sorted() {
			fmt.Fprintf(&b, "%g@%d/%d%v;", m.Dist, m.Pos, m.Size, m.Tree)
		}
		b.WriteByte('|')
	}
	var o scanOutcome
	o.results = b.String()
	o.prune[0], o.prune[1], o.prune[2] = prune.Snapshot()
	o.events = probe.events
	return o
}

func (o scanOutcome) mustEqual(t *testing.T, ctx string, ring scanOutcome) {
	t.Helper()
	if o.results != ring.results {
		t.Fatalf("%s: results differ\n columns %s\n ring    %s", ctx, o.results, ring.results)
	}
	if o.prune != ring.prune {
		t.Fatalf("%s: (histSkipped, tedAborted, evaluated) columns %v, ring %v", ctx, o.prune, ring.prune)
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
		// ones from 1 to past the document size, where only the two sources
		// can be compared — in both tie modes. The columns are scanned with
		// the candidate gate on each route: labelNodes nil walks, all zero
		// reads the postings for every query. Without a probe the column
		// scan steps over gated runs of candidates (prb.Cursor.Skip) instead
		// of visiting each, and must still count every skip: it is held to
		// the ring scan without a probe, which visits every candidate.
		walk, postings := []int(nil), make([]int, len(queries))
		kernel := func(columns, probed bool, labelNodes []int) ([]*ranking.Heap, scanOutcome) {
			probe, prune := &traceProbe{}, &PruneStats{}
			ranks := make([]*ranking.Heap, len(queries))
			for i := range ranks {
				ranks[i] = ranking.New(k + i%2)
			}
			o := opts
			o.Prune = prune
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
			var src candidateSource = sc.ring(postorder.NewSliceQueue(items))
			if columns {
				src = sc.cursor(cols, nil, labelNodes)
			}
			if err := scanCandidates(src, sc, 1000, strict, &o); err != nil {
				t.Fatalf("columns=%v: %v", columns, err)
			}
			return ranks, outcome(ranks, prune, probe)
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

		// The exported entry point over the whole batch, sequential and split
		// into ranges — more of them than candidates, for small documents —
		// against the strict stream scan: every result byte, trees included.
		want := make([]*ranking.Heap, len(queries))
		for i := range want {
			want[i] = ranking.New(k)
		}
		if err := streamScan(queries, postorder.NewSliceQueue(items), want, 7, true, opts); err != nil {
			t.Fatal(err)
		}
		// The first scan fills the document's candidate cache, the others
		// read the set it built.
		cache := new(prb.CandidateCache)
		for _, workers := range []int{0, 1, 2, 5} {
			got := make([]*ranking.Heap, len(queries))
			for i := range got {
				got[i] = ranking.New(k)
			}
			if err := PostorderBatchColumnsInto(queries, cols, cache, postings, got, 7, workers, opts); err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				mustEqualTrees(t, fmt.Sprintf("PostorderBatchColumnsInto workers=%d query %d", workers, i), got[i].Sorted(), want[i].Sorted())
			}
		}
	})
}

// TestColumnKernelsZeroAlloc pins the column scan's steady state: with a
// cursor, view and computers warm, a whole pass of the kernel over a
// document — for one query and for batches of two and four — allocates
// nothing, not per candidate and not per document, under a live
// cancellable context carrying a live trace, the daemon's request shape.
// It does so on both routes of the candidate gate: a document where half
// the nodes carry a query label walks, one where a tenth do reads the
// label postings; and with no candidate cache, with one that holds the
// scan's τ (filled by the warm-up pass), and with one whose two slots
// hold other thresholds.
func TestColumnKernelsZeroAlloc(t *testing.T) {
	d := dict.New()
	queries := []*tree.Tree{
		tree.MustParse(d, "{rec{a}{b}}"),
		tree.MustParse(d, "{rec{a}{b}{c}}"),
		tree.MustParse(d, "{rec{c}}"),
		tree.MustParse(d, "{rec{a}{a}}"),
	}
	// Records the queries match interleaved with ones sharing no label
	// with them, so the histogram gate fires as well as the DP: one in
	// two, or one in ten.
	document := func(every int) *postorder.Columns {
		root := tree.NewNode("root")
		for i := 0; i < 300; i++ {
			if i%every == 0 {
				root.AddChild(tree.NewNode("rec", tree.NewNode("a"), tree.NewNode("b"), tree.NewNode("c")))
			} else {
				root.AddChild(tree.NewNode("x", tree.NewNode("y"), tree.NewNode("z"), tree.NewNode("w")))
			}
		}
		cols, err := postorder.BuildColumns(postorder.FromTree(tree.FromNode(d, root)), 0)
		if err != nil {
			t.Fatal(err)
		}
		return cols
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := qtrace.New()
	defer qtrace.Release(tr)

	for _, doc := range []struct {
		route    string
		cols     *postorder.Columns
		postings bool
	}{{"walk", document(2), false}, {"postings", document(10), true}} {
		for _, n := range []int{1, 2, 4} {
			for _, caching := range []string{"uncached", "cache hit", "cache full"} {
				opts := Options{NoTrees: true, CT: 1, Ctx: qtrace.NewContext(ctx, tr), Prune: &PruneStats{}}
				ranks := make([]*ranking.Heap, n)
				for i := range ranks {
					ranks[i] = ranking.New(2)
				}
				sc, err := opts.scratch(queries[:n], ranks)
				if err != nil {
					t.Fatal(err)
				}
				var cache *prb.CandidateCache
				if caching != "uncached" {
					cache = new(prb.CandidateCache)
				}
				if caching == "cache full" {
					for _, tau := range []int{sc.tauMax + 1, sc.tauMax + 2} {
						new(prb.Cursor).Reset(doc.cols, cache, tau, nil, nil)
					}
				}
				counts := queryLabelNodes(doc.cols, queries[:n])
				cur := sc.cursor(doc.cols, cache, counts)
				pass := func() {
					cur.Reset(doc.cols, cache, sc.tauMax, sc.hists, counts)
					if err := scanCandidates(cur, sc, 0, true, &opts); err != nil {
						t.Fatal(err)
					}
				}
				pass() // warm: grow the cursor and view, fill the rankings
				what := fmt.Sprintf("%s document, %d queries, %s", doc.route, n, caching)
				if cur.Missed() != (caching == "cache full") {
					t.Fatalf("%s: Missed = %v", what, cur.Missed())
				}
				if want := map[bool]int{true: n, false: 0}[doc.postings]; cur.PostingRows() != want {
					t.Fatalf("%s: %d bound rows read postings, want %d", what, cur.PostingRows(), want)
				}
				if h, _, e := opts.Prune.Snapshot(); h == 0 || e == 0 {
					t.Fatalf("%s: warm-up skipped %d candidates and evaluated %d: the pin must cover both gates", what, h, e)
				}
				if race.Enabled {
					continue // allocation counts are not meaningful under -race
				}
				if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
					t.Errorf("column scan of the %s allocates %.1f objects per document in steady state, want 0", what, allocs)
				}
			}
		}
	}
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
