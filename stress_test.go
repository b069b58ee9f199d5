package tasm

// Stress and robustness tests: degenerate tree shapes (deep chains, wide
// stars) pushed through every layer — parser, postorder queues, ring
// buffer, TED, TASM — to catch recursion blowups, off-by-ones at buffer
// boundaries, and quadratic traps.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"tasm/internal/core"
	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/prb"
	"tasm/internal/testenv"
	"tasm/internal/tree"
)

// chainItems yields the postorder queue of a unary chain of depth n:
// sizes 1, 2, …, n.
func chainItems(d dict.Dict, n int) []postorder.Item {
	l := d.Intern("c")
	items := make([]postorder.Item, n)
	for i := range items {
		items[i] = postorder.Item{Label: l, Size: i + 1}
	}
	return items
}

// starItems yields a root with n leaf children.
func starItems(d dict.Dict, n int) []postorder.Item {
	leaf := d.Intern("leaf")
	root := d.Intern("root")
	items := make([]postorder.Item, n+1)
	for i := 0; i < n; i++ {
		items[i] = postorder.Item{Label: leaf, Size: 1}
	}
	items[n] = postorder.Item{Label: root, Size: n + 1}
	return items
}

func TestDeepChainThroughRingBuffer(t *testing.T) {
	// A 200k-deep chain is the worst case for tree shape; the ring buffer
	// must skip every non-candidate ancestor in O(1) each.
	d := dict.New()
	const depth = 200_000
	items := chainItems(d, depth)
	cands, err := prb.Candidates(d, postorder.NewSliceQueue(items), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Only the bottom 10 nodes form a candidate subtree.
	if len(cands) != 1 || cands[0].Tree.Size() != 10 {
		t.Fatalf("chain candidates = %d (first size %d), want 1 of size 10",
			len(cands), cands[0].Tree.Size())
	}
}

func TestDeepChainTASM(t *testing.T) {
	d := dict.New()
	const depth = 50_000
	items := chainItems(d, depth)
	q := tree.MustParse(d, "{c{c{c}}}")
	got, err := core.PostorderStream(q, postorder.NewSliceQueue(items), 3, core.Options{NoTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Dist != 0 {
		t.Fatalf("chain top-3 = %+v", got)
	}
}

func TestDeepChainParsers(t *testing.T) {
	// Deep bracket notation exercises parser recursion; keep the depth at
	// a level real documents exceed but goroutine stacks handle (they
	// grow to 1GB by default). TASM_QUICK shrinks the chain: -race makes
	// the parser recursion roughly an order of magnitude slower.
	depth := 20_000
	if testenv.Quick() {
		depth = 4_000
	}
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("{c")
	}
	sb.WriteString(strings.Repeat("}", depth))
	d := dict.New()
	tr, err := tree.Parse(d, sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != depth || tr.Height() != depth {
		t.Fatalf("chain parse: size %d height %d", tr.Size(), tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// And back out through String.
	if got := len(tr.String()); got != depth*3 {
		t.Fatalf("string length %d, want %d", got, depth*3)
	}
}

func TestDeepXML(t *testing.T) {
	const depth = 5_000
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<d>")
	}
	sb.WriteString("x")
	for i := 0; i < depth; i++ {
		sb.WriteString("</d>")
	}
	m := New()
	tr, err := m.ParseXML(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != depth+1 {
		t.Fatalf("size = %d", tr.Size())
	}
}

func TestWideStarTASM(t *testing.T) {
	// One million leaves under one root: the DBLP shape taken to the
	// extreme. The ring buffer holds τ+1 nodes; everything streams.
	// TASM_QUICK keeps the shape but narrows the star.
	d := dict.New()
	width := 1_000_000
	if testenv.Quick() {
		width = 100_000
	}
	items := starItems(d, width)
	q := tree.MustParse(d, "{leaf}")
	got, err := core.PostorderStream(q, postorder.NewSliceQueue(items), 5, core.Options{NoTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d matches", len(got))
	}
	for _, match := range got {
		if match.Dist != 0 {
			t.Fatalf("leaf query on star: dist %g", match.Dist)
		}
	}
}

func TestWideStarStats(t *testing.T) {
	d := dict.New()
	items := starItems(d, 100_000)
	tr, err := postorder.BuildTree(d, postorder.NewSliceQueue(items))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Fanout(tr.Root()) != 100_000 {
		t.Fatalf("fanout = %d", tr.Fanout(tr.Root()))
	}
	if tr.Height() != 2 {
		t.Fatalf("height = %d", tr.Height())
	}
}

func TestBoundaryTaus(t *testing.T) {
	// τ exactly the document size, one below, one above: the candidate
	// partition must stay exact at each boundary.
	d := dict.New()
	tr := tree.MustParse(d, "{a{b{c}{d}}{e{f}{g}}}")
	n := tr.Size()
	for tau := 1; tau <= n+2; tau++ {
		cands, err := prb.Candidates(d, postorder.FromTree(tr), tau)
		if err != nil {
			t.Fatalf("τ=%d: %v", tau, err)
		}
		want := prb.CandidatesOf(tr, tau)
		if len(cands) != len(want) {
			t.Fatalf("τ=%d: %d candidates, want %d", tau, len(cands), len(want))
		}
		covered := 0
		for i, c := range cands {
			if c.Root != want[i]+1 {
				t.Fatalf("τ=%d: candidate %d at %d, want %d", tau, i, c.Root, want[i]+1)
			}
			covered += c.Tree.Size()
		}
		// Candidates plus non-candidate ancestors partition the tree.
		nonCand := 0
		for i := 0; i < n; i++ {
			if tr.SubtreeSize(i) > tau {
				nonCand++
			}
		}
		if covered+nonCand != n {
			t.Fatalf("τ=%d: %d covered + %d non-candidates != %d nodes", tau, covered, nonCand, n)
		}
	}
}

func TestManyQueriesOneDocument(t *testing.T) {
	ctx := context.Background()
	// Reusing one Matcher across many queries must stay consistent
	// (dictionary growth, computer reuse inside TopK).
	m := New()
	doc, err := m.ParseXML(strings.NewReader(
		`<lib><b><t>x</t></b><b><t>y</t></b><c><t>z</t></c></lib>`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		q, err := m.ParseBracket(fmt.Sprintf("{b{t{q%d}}}", i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.TopK(ctx, q, doc, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Dist != 1 {
			t.Fatalf("iteration %d: %+v", i, got)
		}
	}
}

func TestLabelsWithExoticContent(t *testing.T) {
	m := New()
	labels := []string{
		"", " ", "\t\n", "emoji 🌲", "\x00nul", "very " + strings.Repeat("long ", 200) + "label",
		`back\slash`, "{brace}", "<tag>", "&amp;",
	}
	for _, l := range labels {
		a := m.FromNode(NewNode("r", NewNode(l)))
		b := m.FromNode(NewNode("r", NewNode(l)))
		if d := m.Distance(a, b); d != 0 {
			t.Errorf("label %q: distance %g, want 0", l, d)
		}
		c := m.FromNode(NewNode("r", NewNode(l+"!")))
		if d := m.Distance(a, c); d != 1 {
			t.Errorf("label %q: rename distance %g, want 1", l, d)
		}
	}
}
