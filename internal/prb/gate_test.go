package prb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tasm/internal/datagen"
	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/tree"
)

// forestItems decodes data into the postorder items of a forest: byte b
// emits a node labelled labels[b&7] that adopts as its children the last
// (b>>3)%4 roots completed before it. Whatever roots remain at the end are
// the forest's trees.
func forestItems(labels []int, data []byte) []postorder.Item {
	items := make([]postorder.Item, 0, len(data))
	var roots []int // sizes of the completed, unadopted subtrees
	for _, b := range data {
		adopt := min(int(b>>3)%4, len(roots))
		size := 1
		for _, s := range roots[len(roots)-adopt:] {
			size += s
		}
		roots = append(roots[:len(roots)-adopt], size)
		items = append(items, postorder.Item{Label: labels[b&7], Size: size})
	}
	return items
}

// labelSpace is a dictionary with the label ids FuzzPostingsBound draws
// from: eight for documents, and for queries five of those and three no
// node carries. A sparse space pushes the ids past the dense histogram's
// limit first.
type labelSpace struct {
	d     dict.Dict
	doc   []int
	query []int
}

func newLabelSpace(sparse bool) labelSpace {
	d := dict.New()
	if sparse {
		for i := 0; i < 2*denseLimit; i++ {
			d.Intern(fmt.Sprintf("filler%d", i))
		}
	}
	s := labelSpace{d: d}
	for _, l := range "abcdefgh" {
		s.doc = append(s.doc, d.Intern(string(l)))
	}
	s.query = append(s.doc[:5:5], d.Intern("x"), d.Intern("y"), d.Intern("z"))
	return s
}

// FuzzPostingsBound: over any forest, any τ ≥ 1 and any query — labels
// repeated, labels no node carries, a single node — the bound the cursor
// computes for every candidate from the label postings through a candidate
// set cached at the fuzzed τ equals the one its walk computes, the ring
// buffer's sliding CandidateBound, the one a cursor reset on the
// candidate's window alone computes, and the naive count over the
// materialised subtree. Both label-histogram representations are covered,
// and so is the route Reset picks itself, with and without the cache.
func FuzzPostingsBound(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x0a, 0x03, 0x1c, 0x05}, []byte{0x0a, 0x01}, uint8(2), false)
	f.Add([]byte{0x02}, []byte{0x02}, uint8(1), false)                                           // one node, one query node
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05}, []byte{0x09, 0x09, 0x01}, uint8(1), true)        // a forest of leaves, absent labels
	f.Add([]byte{0x00, 0x00, 0x10, 0x00, 0x18, 0x1f, 0x00}, []byte{0, 0, 0, 0}, uint8(4), false) // repeated labels
	f.Add([]byte{0x01, 0x09, 0x11, 0x19, 0x01, 0x09}, []byte{0x01, 0x02}, uint8(200), true)
	spaces := [2]labelSpace{newLabelSpace(false), newLabelSpace(true)}
	f.Fuzz(func(t *testing.T, docData, queryData []byte, tauRaw uint8, sparse bool) {
		if len(docData) == 0 || len(queryData) == 0 || len(docData) > 1024 || len(queryData) > 64 {
			t.Skip()
		}
		sp := spaces[0]
		if sparse {
			sp = spaces[1]
		}
		checkPostingsBound(t, sp, docData, queryData, tauRaw)
	})
}

func checkPostingsBound(t *testing.T, sp labelSpace, docData, queryData []byte, tauRaw uint8) {
	items := forestItems(sp.doc, docData)
	// The query's shape does not matter to a label bound: a root and its
	// children.
	root := tree.NewNode(sp.d.Label(sp.query[queryData[0]%8]))
	for _, b := range queryData[1:] {
		root.AddChild(tree.NewNode(sp.d.Label(sp.query[b%8])))
	}
	q := tree.FromNode(sp.d, root)
	tau := 1 + int(tauRaw)%(len(items)+2)

	cols, err := postorder.BuildColumns(postorder.NewSliceQueue(items), len(items))
	if err != nil {
		t.Fatalf("BuildColumns refused a well-formed forest: %v", err)
	}
	h := NewLabelHist(q)
	hists, counts := []*LabelHist{h}, labelNodes(cols, h)
	auto, autoCached, cache := new(Cursor), new(Cursor), new(CandidateCache)
	auto.Reset(cols, nil, tau, hists, counts)
	autoCached.Reset(cols, cache, tau, hists, counts)
	set := cache.slots[0].Load()
	cur := NewCursor(cols, tau)
	if autoCached.Missed() || set == nil || !slices.Equal(set.roots, cur.roots) {
		t.Fatalf("τ=%d: the cache's set holds roots %v, the walk locates %v", tau, set, cur.roots)
	}
	walked, fromMap := make([]int32, len(cur.roots)), make([]int32, len(cur.roots))
	cur.walkBounds(h, walked)
	cur.mapBounds(h, fromMap, set)
	if h.Missing() != q.Size() {
		t.Fatalf("the walk left the window at %d, want |Q| = %d", h.Missing(), q.Size())
	}

	buf, window := New(postorder.NewSliceQueue(items), tau), new(Cursor)
	for j := 0; ; j++ {
		ok, err := buf.Next()
		if err != nil {
			t.Fatal(err)
		}
		if more := auto.Next(); more != ok {
			t.Fatalf("candidate %d: ring has one=%v, cursor=%v", j, ok, more)
		}
		if more := autoCached.Next(); more != ok {
			t.Fatalf("candidate %d: ring has one=%v, cached cursor=%v", j, ok, more)
		}
		if !ok {
			if j != len(cur.roots) {
				t.Fatalf("ring has %d candidates, cursor %d", j, len(cur.roots))
			}
			return
		}
		if auto.Leaf() != buf.Leaf() || auto.Root() != buf.Root() {
			t.Fatalf("candidate %d: cursor [%d,%d], ring [%d,%d]", j, auto.Leaf(), auto.Root(), buf.Leaf(), buf.Root())
		}
		sub, err := buf.Subtree(sp.d, buf.Leaf(), buf.Root())
		if err != nil {
			t.Fatal(err)
		}
		want := naiveMissing(q, sub)
		ring := h.CandidateBound(buf, buf.Leaf(), buf.Root())
		labels, sizes := buf.Window(buf.Leaf(), buf.Root())
		window.ResetWindow(labels, sizes, hists)
		if !window.Next() || window.Leaf() != 1 || window.Root() != len(labels) {
			t.Fatalf("candidate %d: a cursor over its window of %d nodes has no candidate [1,%d]", j, len(labels), len(labels))
		}
		if int(fromMap[j]) != want || int(walked[j]) != want || ring != want || window.LabelBound(0) != want ||
			auto.LabelBound(0) != want || autoCached.LabelBound(0) != want {
			t.Fatalf("candidate %d [%d,%d] of τ=%d: map %d, walk %d, ring %d, window %d, chosen route %d (cached %d), naive %d\nitems %v\nquery %v",
				j, buf.Leaf(), buf.Root(), tau, fromMap[j], walked[j], ring, window.LabelBound(0), auto.LabelBound(0), autoCached.LabelBound(0), want, items, q)
		}
		if window.Next() {
			t.Fatalf("candidate %d: a cursor over its window has a second candidate", j)
		}
	}
}

// TestPostingsRouteChoice pins readPostings on both sides of its
// break-even share, and Reset's use of it on a cached candidate set: a
// query whose labels a tenth of the document carries reads the postings,
// one whose labels half of it carries walks, in one batch; without counts,
// or without a cached set, every query walks.
func TestPostingsRouteChoice(t *testing.T) {
	for _, c := range []struct {
		postings, covered int
		want              bool
	}{
		{0, 100, true},
		{24, 100, true},
		{25, 100, false}, // the break-even share: the walk is no dearer
		{26, 100, false},
		{100, 100, false},
		{0, 0, false}, // nothing to read either way
	} {
		if got := readPostings(c.postings, c.covered); got != c.want {
			t.Errorf("readPostings(%d postings, %d covered) = %v, want %v", c.postings, c.covered, got, c.want)
		}
	}

	d := dict.New()
	root := tree.NewNode("root")
	for i := 0; i < 100; i++ {
		label := "common"
		if i%10 == 0 {
			label = "rare"
		}
		root.AddChild(tree.NewNode("rec", tree.NewNode(label)))
	}
	doc := tree.FromNode(d, root)
	rare, common := NewLabelHist(tree.MustParse(d, "{rare}")), NewLabelHist(tree.MustParse(d, "{rec{common}}"))
	cols, err := postorder.BuildColumns(postorder.FromTree(doc), doc.Size())
	if err != nil {
		t.Fatal(err)
	}
	cache, cur := new(CandidateCache), new(Cursor)
	for _, c := range []struct {
		hists  []*LabelHist
		counts bool
		cache  *CandidateCache
		want   int
	}{
		{[]*LabelHist{rare, common}, true, cache, 1}, // the rare query's
		{[]*LabelHist{common, rare, rare}, true, cache, 2},
		{[]*LabelHist{common, rare, rare}, false, cache, 0}, // no label-node counts
		{[]*LabelHist{common, rare, rare}, true, nil, 0},    // no cached set
	} {
		var counts []int
		if c.counts {
			counts = labelNodes(cols, c.hists...)
		}
		if cur.Reset(cols, c.cache, 4, c.hists, counts); cur.PostingRows() != c.want {
			t.Fatalf("%d histograms, counts %v, cache %v: %d bound rows read postings, want %d", len(c.hists), counts, c.cache != nil, cur.PostingRows(), c.want)
		}
	}
}

// BenchmarkGate times the routes over the bench's fixture shapes — an
// XMark document and a DBLP bibliography — for queries drawn from them,
// and reports what readPostings' constants are made of: the walk's cost
// per candidate node and the postings pass's cost per posting read
// through a cached candidate set's node map (map, which also reports the
// share of the candidates' nodes that carry a query label and what
// building the set costs per document node).
//
//	go test -run='^$' -bench Gate -benchtime 4000x ./internal/prb
func BenchmarkGate(b *testing.B) {
	for _, fx := range fixtures(b) {
		doc, cols := fx.doc, fx.cols
		rng := rand.New(rand.NewSource(1))
		var hists []*LabelHist
		for len(hists) < 32 {
			q, err := datagen.QueryFromDocument(doc, rng, 8)
			if err != nil {
				b.Fatal(err)
			}
			hists = append(hists, NewLabelHist(q))
		}
		tau := 2*8 + 5
		cur := NewCursor(cols, tau)
		row := make([]int32, len(cur.roots))
		covered := 0
		for _, r := range cur.roots {
			covered += int(cols.Sizes()[r-1])
		}
		postings := 0
		for _, n := range labelNodes(cols, hists...) {
			postings += n
		}
		b.Run(fx.name+"/walk", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cur.walkBounds(hists[i%len(hists)], row)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(covered), "ns/node")
		})
		b.Run(fx.name+"/map", func(b *testing.B) {
			set := newCandidateSet(cols, tau, new([]int32))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur.mapBounds(hists[i%len(hists)], row, set)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(float64(postings)/float64(len(hists))), "ns/posting")
			b.ReportMetric(float64(postings)/float64(len(hists))/float64(covered), "share")
			b.StopTimer()
			const builds = 50
			start := time.Now()
			for range builds {
				newCandidateSet(cols, tau, new([]int32))
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/builds/float64(cols.Len()), "build-ns/node")
		})
	}
}
