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

func FuzzColumnsVsStream(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x10, 0x22, 0x31, 0x04}, uint8(1), uint8(6), uint8(2), uint8(0), uint16(0))
	f.Add([]byte{0x05, 0x0a, 0x21, 0x00, 0x13}, uint8(2), uint8(0), uint8(1), uint8(1), uint16(0))
	f.Add([]byte{0x01, 0x01, 0x01, 0x71, 0x01, 0x72}, uint8(3), uint8(200), uint8(4), uint8(3), uint16(0))
	f.Add([]byte{0x01, 0x11, 0x01, 0x21, 0x02}, uint8(0), uint8(2), uint8(0), uint8(4), uint16(0x0002)) // size 0
	f.Add([]byte{0x01, 0x11, 0x01, 0x21, 0x02}, uint8(0), uint8(2), uint8(0), uint8(4), uint16(0x0901)) // size > position
	f.Add([]byte{0x01, 0x11, 0x01, 0x11, 0x02}, uint8(1), uint8(3), uint8(1), uint8(5), uint16(0x0203)) // crossing
	f.Fuzz(func(t *testing.T, data []byte, qSel, tauRaw, kRaw, flags uint8, mut uint16) {
		d := dict.New()
		brackets := []string{"{a}", "{a{b}}", "{a{b}{c}}", "{b{a{c}}{d}}"}
		q := tree.MustParse(d, brackets[int(qSel)%len(brackets)])
		q2 := tree.MustParse(d, brackets[int(qSel>>2)%len(brackets)])
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

		n := len(items)
		tau := 1 + int(tauRaw)%(n+3) // 1 … past the document size
		k := int(kRaw)%5 + 1
		strict := flags&2 != 0
		opts := Options{NoTrees: flags&8 != 0, DisableIntermediateBound: flags&16 != 0}

		// Sequential kernel at an arbitrary τ, both tie modes.
		seq := func(columns bool) scanOutcome {
			probe, prune, r := &traceProbe{}, &PruneStats{}, ranking.New(k)
			o := opts
			o.Probe, o.Prune = probe, prune
			sc, _, err := o.seqScratch(q, k)
			if err != nil {
				t.Fatal(err)
			}
			var src candidateSource = sc.ring(postorder.NewSliceQueue(items), tau)
			if columns {
				src = sc.cursor(cols, tau)
			}
			if err := scanCandidates(src, sc, tau, r, 1000, strict, &o); err != nil {
				t.Fatalf("columns=%v: %v", columns, err)
			}
			return outcome([]*ranking.Heap{r}, prune, probe)
		}
		seq(true).mustEqual(t, fmt.Sprintf("sequential τ=%d k=%d strict=%v", tau, k, strict), seq(false))

		// Batch kernel: two queries, each at its own τ inside the shared
		// pass at the larger.
		batch := func(columns bool) scanOutcome {
			probe, prune := &traceProbe{}, &PruneStats{}
			ranks := []*ranking.Heap{ranking.New(k), ranking.New(k + 1)}
			o := opts
			o.Probe, o.Prune = probe, prune
			sc, err := o.batchScratch([]*tree.Tree{q, q2}, ranks)
			if err != nil {
				t.Fatal(err)
			}
			var src candidateSource = sc.ring(postorder.NewSliceQueue(items), sc.tauMax)
			if columns {
				src = sc.cursor(cols, sc.tauMax)
			}
			if err := batchCandidates(src, sc, 1000, strict, &o); err != nil {
				t.Fatalf("columns=%v: %v", columns, err)
			}
			return outcome(ranks, prune, probe)
		}
		batch(true).mustEqual(t, fmt.Sprintf("batch k=%d strict=%v", k, strict), batch(false))

		// The exported entry points, including the worker pool (whose
		// counters depend on scheduling; its strict-margin results do not).
		for _, workers := range []int{0, 2} {
			rc, rs := ranking.New(k), ranking.New(k)
			o := opts
			o.NoTrees = true // at a tie the pool may materialize either representative's tree
			if err := PostorderColumnsInto(q, cols, rc, 7, workers, o); err != nil {
				t.Fatal(err)
			}
			if workers == 0 {
				err = PostorderStreamInto(q, postorder.NewSliceQueue(items), rs, 7, o)
			} else {
				err = PostorderParallelInto(q, postorder.NewSliceQueue(items), rs, 7, workers, o)
			}
			if err != nil {
				t.Fatal(err)
			}
			mustEqualMatches(t, fmt.Sprintf("PostorderColumnsInto workers=%d", workers), rc.Sorted(), rs.Sorted())
		}
	})
}

// TestColumnKernelsZeroAlloc pins the column scan's steady state: with a
// cursor, view and computer warm, a whole pass of the sequential kernel
// and of the batch kernel over a document allocates nothing — not per
// candidate and not per document — under a live cancellable context
// carrying a live trace, the daemon's request shape.
func TestColumnKernelsZeroAlloc(t *testing.T) {
	d := dict.New()
	queries := []*tree.Tree{tree.MustParse(d, "{rec{a}{b}}"), tree.MustParse(d, "{rec{a}{b}{c}}")}
	// Records the queries match interleaved with ones sharing no label
	// with them, so the histogram gate fires as well as the DP.
	root := tree.NewNode("root")
	for i := 0; i < 300; i++ {
		root.AddChild(tree.NewNode("rec", tree.NewNode("a"), tree.NewNode("b"), tree.NewNode("c")))
		root.AddChild(tree.NewNode("x", tree.NewNode("y"), tree.NewNode("z"), tree.NewNode("w")))
	}
	cols, err := postorder.BuildColumns(postorder.FromTree(tree.FromNode(d, root)), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := qtrace.New()
	defer qtrace.Release(tr)
	opts := Options{NoTrees: true, CT: 1, Ctx: qtrace.NewContext(ctx, tr), Prune: &PruneStats{}}

	r := ranking.New(2)
	sc, tau, err := opts.seqScratch(queries[0], r.K())
	if err != nil {
		t.Fatal(err)
	}
	cur := prb.NewCursor(cols, tau)
	sequential := func() {
		cur.Reset(cols, tau)
		if err := scanCandidates(cur, sc, tau, r, 0, true, &opts); err != nil {
			t.Fatal(err)
		}
	}

	ranks := []*ranking.Heap{ranking.New(2), ranking.New(2)}
	bsc, err := opts.batchScratch(queries, ranks)
	if err != nil {
		t.Fatal(err)
	}
	bcur := prb.NewCursor(cols, bsc.tauMax)
	batch := func() {
		bcur.Reset(cols, bsc.tauMax)
		if err := batchCandidates(bcur, bsc, 0, true, &opts); err != nil {
			t.Fatal(err)
		}
	}

	sequential() // warm: grow the view, fill the rankings
	batch()
	if h, _, e := opts.Prune.Snapshot(); h == 0 || e == 0 {
		t.Fatalf("warm-up skipped %d candidates and evaluated %d: the pin must cover both gates", h, e)
	}
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if allocs := testing.AllocsPerRun(20, sequential); allocs != 0 {
		t.Errorf("sequential column scan allocates %.1f objects per document in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Errorf("batch column scan allocates %.1f objects per document in steady state, want 0", allocs)
	}
}
