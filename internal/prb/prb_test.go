package prb

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/tree"
)

// paperD builds the example document D of Figure 4 of the paper.
func paperD(t testing.TB) (dict.Dict, *tree.Tree) {
	t.Helper()
	d := dict.New()
	tr := tree.MustParse(d,
		"{dblp"+
			"{article{auth{John}}{title{X1}}}"+
			"{proceedings{conf{VLDB}}{article{auth{Peter}}{title{X3}}}{article{auth{Mike}}{title{X4}}}}"+
			"{book{title{X2}}}}")
	if tr.Size() != 22 {
		t.Fatalf("document D has %d nodes, want 22", tr.Size())
	}
	return d, tr
}

// TestPostorderQueueOfD reproduces Figure 4b: the postorder queue of D.
func TestPostorderQueueOfD(t *testing.T) {
	d, tr := paperD(t)
	items := postorder.Items(tr)
	want := []struct {
		label string
		size  int
	}{
		{"John", 1}, {"auth", 2}, {"X1", 1}, {"title", 2}, {"article", 5},
		{"VLDB", 1}, {"conf", 2}, {"Peter", 1}, {"auth", 2}, {"X3", 1},
		{"title", 2}, {"article", 5}, {"Mike", 1}, {"auth", 2}, {"X4", 1},
		{"title", 2}, {"article", 5}, {"proceedings", 13}, {"X2", 1},
		{"title", 2}, {"book", 3}, {"dblp", 22},
	}
	if len(items) != len(want) {
		t.Fatalf("queue has %d items, want %d", len(items), len(want))
	}
	for i, w := range want {
		if d.Label(items[i].Label) != w.label || items[i].Size != w.size {
			t.Errorf("item %d = (%s,%d), want (%s,%d)",
				i, d.Label(items[i].Label), items[i].Size, w.label, w.size)
		}
	}
}

// TestCandidateSetExample3 reproduces Example 3: cand(D, 6) =
// {D5, D7, D12, D17, D21} (1-based postorder roots 5, 7, 12, 17, 21).
func TestCandidateSetExample3(t *testing.T) {
	d, tr := paperD(t)
	cands, err := Candidates(d, postorder.FromTree(tr), 6)
	if err != nil {
		t.Fatal(err)
	}
	wantRoots := []int{5, 7, 12, 17, 21}
	if len(cands) != len(wantRoots) {
		t.Fatalf("candidate roots = %v, want %v", roots(cands), wantRoots)
	}
	for i, w := range wantRoots {
		if cands[i].Root != w {
			t.Fatalf("candidate roots = %v, want %v", roots(cands), wantRoots)
		}
	}
	// Example 7 also fixes the subtree contents; spot-check the shapes.
	wantTrees := []string{
		"{article{auth{John}}{title{X1}}}",
		"{conf{VLDB}}",
		"{article{auth{Peter}}{title{X3}}}",
		"{article{auth{Mike}}{title{X4}}}",
		"{book{title{X2}}}",
	}
	for i, w := range wantTrees {
		if got := cands[i].Tree.String(); got != w {
			t.Errorf("candidate %d = %s, want %s", i, got, w)
		}
		if err := cands[i].Tree.Validate(); err != nil {
			t.Errorf("candidate %d invalid: %v", i, err)
		}
	}
}

// TestCandidatesOfOracle checks the Definition 9 oracle on document D.
func TestCandidatesOfOracle(t *testing.T) {
	_, tr := paperD(t)
	got := CandidatesOf(tr, 6)
	want := []int{4, 6, 11, 16, 20} // 0-based
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("CandidatesOf = %v, want %v", got, want)
	}
}

// TestWholeDocumentCandidate: when τ ≥ |T| the only candidate is T itself.
func TestWholeDocumentCandidate(t *testing.T) {
	d, tr := paperD(t)
	for _, tau := range []int{22, 23, 100} {
		cands, err := Candidates(d, postorder.FromTree(tr), tau)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != 1 || cands[0].Root != 22 || !cands[0].Tree.Equal(tr) {
			t.Errorf("τ=%d: want the whole document as single candidate, got roots %v", tau, roots(cands))
		}
	}
}

// TestTauOne: with τ = 1 the candidates are exactly the leaves whose
// ancestors all have size > 1 — i.e. every leaf of a tree with >1 node.
func TestTauOne(t *testing.T) {
	d, tr := paperD(t)
	cands, err := Candidates(d, postorder.FromTree(tr), 1)
	if err != nil {
		t.Fatal(err)
	}
	var wantRoots []int
	for i := 0; i < tr.Size(); i++ {
		if tr.IsLeaf(i) {
			wantRoots = append(wantRoots, i+1)
		}
	}
	if fmt.Sprint(roots(cands)) != fmt.Sprint(wantRoots) {
		t.Errorf("τ=1 roots = %v, want leaves %v", roots(cands), wantRoots)
	}
	for _, c := range cands {
		if c.Tree.Size() != 1 {
			t.Errorf("τ=1 candidate of size %d", c.Tree.Size())
		}
	}
}

func TestSingleNodeDocument(t *testing.T) {
	d := dict.New()
	tr := tree.MustParse(d, "{only}")
	cands, err := Candidates(d, postorder.FromTree(tr), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Root != 1 || cands[0].Tree.Size() != 1 {
		t.Errorf("single-node doc: got %v", cands)
	}
}

func TestEmptyQueue(t *testing.T) {
	d := dict.New()
	cands, err := Candidates(d, postorder.NewSliceQueue(nil), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("empty queue: got %d candidates", len(cands))
	}
}

type failingQueue struct {
	items []postorder.Item
	pos   int
	err   error
}

func (q *failingQueue) Next() (postorder.Item, error) {
	if q.pos >= len(q.items) {
		return postorder.Item{}, q.err
	}
	it := q.items[q.pos]
	q.pos++
	return it, nil
}

func TestQueueErrorPropagates(t *testing.T) {
	d, tr := paperD(t)
	items := postorder.Items(tr)
	wantErr := errors.New("disk on fire")
	q := &failingQueue{items: items[:10], err: wantErr}
	_, err := Candidates(d, q, 6)
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
	// The error must be sticky.
	buf := New(&failingQueue{items: nil, err: wantErr}, 3)
	if _, err := buf.Next(); !errors.Is(err, wantErr) {
		t.Errorf("first Next: %v", err)
	}
	if _, err := buf.Next(); !errors.Is(err, wantErr) {
		t.Errorf("second Next (sticky): %v", err)
	}
}

func TestMalformedSizeRejected(t *testing.T) {
	d := dict.New()
	l := d.Intern("a")
	q := postorder.NewSliceQueue([]postorder.Item{{Label: l, Size: 3}})
	if _, err := Candidates(d, q, 5); err == nil {
		t.Error("size larger than position should be rejected")
	}
}

// TestSplitWithinTauRejected: sizes that each lie in 1..position but do
// not nest are refused when the splitting node is within τ — here node 4
// claims nodes 2–4, cutting node 3's subtree 1–3 in two. Its leftmost
// node, 2, is a leaf, and the candidate 1–3 the ring yields first is well
// formed, so only the tiling of node 4's children shows the split. With
// τ = 2 both nodes of size 3 lie beyond what the ring checks, and the
// stream is scanned.
func TestSplitWithinTauRejected(t *testing.T) {
	d := dict.New()
	l := d.Intern("a")
	items := []postorder.Item{{Label: l, Size: 1}, {Label: l, Size: 1}, {Label: l, Size: 3}, {Label: l, Size: 3}}
	for _, tau := range []int{3, 4, 10} {
		if _, err := Candidates(d, postorder.NewSliceQueue(items), tau); err == nil {
			t.Errorf("τ=%d: node 4 splits node 3's subtree, yet the stream was accepted", tau)
		}
	}
	if _, err := Candidates(d, postorder.NewSliceQueue(items), 2); err != nil {
		t.Errorf("τ=2: %v", err)
	}
}

// roots extracts the root positions of a candidate list.
func roots(cs []Candidate) []int {
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.Root
	}
	return out
}

// cursorCandidates is Candidates over resident columns: the candidate set
// as a Cursor enumerates it, each subtree materialized from its Window.
func cursorCandidates(d dict.Dict, tr *tree.Tree, tau int) ([]Candidate, error) {
	cols, err := postorder.BuildColumns(postorder.FromTree(tr), tr.Size())
	if err != nil {
		return nil, err
	}
	var out []Candidate
	for cur := NewCursor(cols, tau); ; {
		if !cur.Next() {
			return out, nil
		}
		labels, sizes := cur.Window(cur.Leaf(), cur.Root())
		ls, ss := make([]int, len(labels)), make([]int, len(sizes))
		for j := range labels {
			ls[j], ss[j] = int(labels[j]), int(sizes[j])
		}
		sub, err := tree.FromPostorder(d, ls, ss)
		if err != nil {
			return out, err
		}
		out = append(out, Candidate{Root: cur.Root(), Tree: sub})
	}
}

// checkAgainstOracle verifies ring-buffer and column-cursor pruning
// output against the Definition 9 oracle on one tree.
func checkAgainstOracle(t *testing.T, d dict.Dict, tr *tree.Tree, tau int) {
	t.Helper()
	checkCandidates(t, d, tr, tau, Candidates)
	checkCandidates(t, d, tr, tau, func(d dict.Dict, _ postorder.Queue, tau int) ([]Candidate, error) {
		return cursorCandidates(d, tr, tau)
	})
}

func checkCandidates(t *testing.T, d dict.Dict, tr *tree.Tree, tau int, enumerate func(dict.Dict, postorder.Queue, int) ([]Candidate, error)) {
	t.Helper()
	cands, err := enumerate(d, postorder.FromTree(tr), tau)
	if err != nil {
		t.Fatalf("τ=%d: %v", tau, err)
	}
	want := CandidatesOf(tr, tau)
	if len(cands) != len(want) {
		t.Fatalf("τ=%d on %s: got roots %v, want %v", tau, tr, roots(cands), addOne(want))
	}
	for i, w := range want {
		if cands[i].Root != w+1 {
			t.Fatalf("τ=%d on %s: got roots %v, want %v", tau, tr, roots(cands), addOne(want))
		}
		if !cands[i].Tree.Equal(tr.Subtree(w)) {
			t.Fatalf("τ=%d root %d: materialized subtree %s != %s", tau, w+1, cands[i].Tree, tr.Subtree(w))
		}
	}
}

func addOne(a []int) []int {
	out := make([]int, len(a))
	for i, v := range a {
		out[i] = v + 1
	}
	return out
}

// TestRingBufferMatchesOracleQuick is the central pruning property test:
// on random trees and thresholds, ring-buffer pruning and the column
// cursor both return exactly cand(T, τ) with correctly materialized
// subtrees.
func TestRingBufferMatchesOracleQuick(t *testing.T) {
	f := func(seed int64, nRaw, tauRaw uint8) bool {
		n := int(nRaw)%60 + 1
		tau := int(tauRaw)%(n+4) + 1
		d := dict.New()
		tr := tree.Random(d, rand.New(rand.NewSource(seed)), tree.DefaultRandomConfig(n))
		want := CandidatesOf(tr, tau)
		ring, err := Candidates(d, postorder.FromTree(tr), tau)
		if err != nil {
			return false
		}
		cursor, err := cursorCandidates(d, tr, tau)
		if err != nil {
			return false
		}
		for _, cands := range [][]Candidate{ring, cursor} {
			if len(cands) != len(want) {
				return false
			}
			for i, w := range want {
				if cands[i].Root != w+1 || !cands[i].Tree.Equal(tr.Subtree(w)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestSimplePrunerMatchesOracleQuick checks the Section V-B simple pruning
// baseline against the oracle too.
func TestSimplePrunerMatchesOracleQuick(t *testing.T) {
	f := func(seed int64, nRaw, tauRaw uint8) bool {
		n := int(nRaw)%60 + 1
		tau := int(tauRaw)%(n+4) + 1
		d := dict.New()
		tr := tree.Random(d, rand.New(rand.NewSource(seed)), tree.DefaultRandomConfig(n))
		cands, _, err := SimpleCandidates(d, postorder.FromTree(tr), tau)
		if err != nil {
			return false
		}
		want := CandidatesOf(tr, tau)
		if len(cands) != len(want) {
			return false
		}
		for i, w := range want {
			if cands[i].Root != w+1 || !cands[i].Tree.Equal(tr.Subtree(w)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSimplePrunerBuffersMore demonstrates the motivation for the ring
// buffer (Section V-B): on shallow wide documents the simple strategy
// buffers O(n) nodes while the ring buffer is capped at τ.
func TestSimplePrunerBuffersMore(t *testing.T) {
	d := dict.New()
	// A DBLP-shaped document: root with many small children.
	root := tree.NewNode("dblp")
	for i := 0; i < 200; i++ {
		root.AddChild(tree.NewNode("article", tree.NewNode("auth"), tree.NewNode("title")))
	}
	tr := tree.FromNode(d, root)
	tau := 6
	_, stats, err := SimpleCandidates(d, postorder.FromTree(tr), tau)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakBuffered < tr.Size()-1 {
		t.Errorf("simple pruning buffered %d nodes; expected nearly the whole document (%d) on a shallow wide tree",
			stats.PeakBuffered, tr.Size())
	}
}

// TestBufferAccessorsDuringScan exercises Root/Leaf/Label/SizeOf/LMLOf on
// the worked ring-buffer trace of Example 7 (Figure 6).
func TestBufferAccessorsDuringScan(t *testing.T) {
	d, tr := paperD(t)
	buf := New(postorder.FromTree(tr), 6)

	// First candidate: D5 (article, nodes 1–5).
	ok, err := buf.Next()
	if err != nil || !ok {
		t.Fatalf("Next: %v %v", ok, err)
	}
	if buf.Leaf() != 1 || buf.Root() != 5 {
		t.Fatalf("first candidate spans [%d,%d], want [1,5]", buf.Leaf(), buf.Root())
	}
	if got := d.Label(buf.Label(5)); got != "article" {
		t.Errorf("label(5) = %s, want article", got)
	}
	if got := buf.SizeOf(5); got != 5 {
		t.Errorf("SizeOf(5) = %d, want 5", got)
	}
	if got := buf.SizeOf(2); got != 2 { // auth with John below
		t.Errorf("SizeOf(2) = %d, want 2", got)
	}
	if got := buf.LMLOf(5); got != 1 {
		t.Errorf("LMLOf(5) = %d, want 1", got)
	}

	// Remaining candidates per Figure 6: D7, D12, D17, D21.
	want := [][2]int{{6, 7}, {8, 12}, {13, 17}, {19, 21}}
	for _, w := range want {
		ok, err := buf.Next()
		if err != nil || !ok {
			t.Fatalf("Next: %v %v", ok, err)
		}
		if buf.Leaf() != w[0] || buf.Root() != w[1] {
			t.Fatalf("candidate spans [%d,%d], want [%d,%d]", buf.Leaf(), buf.Root(), w[0], w[1])
		}
	}
	if ok, err := buf.Next(); ok || err != nil {
		t.Fatalf("scan should end cleanly, got ok=%v err=%v", ok, err)
	}
	if buf.NodesScanned() != 22 {
		t.Errorf("NodesScanned = %d, want 22", buf.NodesScanned())
	}
}

func TestNewPanicsOnBadTau(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with τ=0 should panic")
		}
	}()
	New(postorder.NewSliceQueue(nil), 0)
}

// TestWindowRoundTrip round-trips a candidate through Window + BuildTree.
func TestWindowRoundTrip(t *testing.T) {
	d, tr := paperD(t)
	buf := New(postorder.FromTree(tr), 6)
	ok, err := buf.Next()
	if err != nil || !ok {
		t.Fatal(err)
	}
	labels, sizes := buf.Window(buf.Leaf(), buf.Root())
	items := make([]postorder.Item, len(labels))
	for i := range items {
		items[i] = postorder.Item{Label: int(labels[i]), Size: int(sizes[i])}
	}
	got, err := postorder.BuildTree(d, postorder.NewSliceQueue(items))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "{article{auth{John}}{title{X1}}}" {
		t.Errorf("Window round trip = %s", got)
	}
}
