package prb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/race"
	"tasm/internal/tree"
)

// naiveMissing counts Σ_label max(0, count_Q − count_T) directly.
func naiveMissing(q, t *tree.Tree) int {
	qc := map[int]int{}
	for _, id := range q.LabelIDs() {
		qc[id]++
	}
	tc := map[int]int{}
	for _, id := range t.LabelIDs() {
		tc[id]++
	}
	missing := 0
	for id, n := range qc {
		if m := tc[id]; n > m {
			missing += n - m
		}
	}
	return missing
}

// TestCandidateBoundMatchesNaive: the sliding histogram's bound for every
// candidate of a scan must equal the naive per-candidate count, and the
// window must be clean between candidates (skipping candidates cannot
// leave residue). A column cursor bound against the same histogram walks
// the same document in lockstep: its precomputed bounds must agree, and
// computing them must have left the window just as clean.
func TestCandidateBoundMatchesNaive(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 50; iter++ {
		q := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(10), MaxFanout: 3, Labels: 6})
		doc := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(120), MaxFanout: 4, Labels: 6})
		tau := 1 + rng.Intn(20)
		hist := NewLabelHist(q)
		buf := New(postorder.NewSliceQueue(postorder.Items(doc)), tau)
		cur := columnCursor(t, doc, tau, hist)
		for {
			ok, err := buf.Next()
			if err != nil {
				t.Fatal(err)
			}
			if more, _ := cur.Next(); more != ok {
				t.Fatalf("iter %d: ring has a candidate=%v, cursor=%v", iter, ok, more)
			}
			if !ok {
				break
			}
			got := hist.CandidateBound(buf, buf.Leaf(), buf.Root())
			sub, err := buf.Subtree(d, buf.Leaf(), buf.Root())
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveMissing(q, sub); got != want {
				t.Fatalf("iter %d candidate [%d,%d]: bound %d, want %d", iter, buf.Leaf(), buf.Root(), got, want)
			}
			if hist.Missing() != q.Size() {
				t.Fatalf("iter %d: window not clean after CandidateBound: missing %d, want |Q|=%d", iter, hist.Missing(), q.Size())
			}
			if colGot := cur.LabelBound(0, hist); colGot != got || hist.Missing() != q.Size() {
				t.Fatalf("iter %d candidate [%d,%d]: column bound %d (window missing %d), ring bound %d",
					iter, cur.Leaf(), cur.Root(), colGot, hist.Missing(), got)
			}
		}
	}
}

// columnCursor returns a cursor over doc's columns bounding every
// candidate against hists, each by the route its true label-node count
// picks.
func columnCursor(t *testing.T, doc *tree.Tree, tau int, hists ...*LabelHist) *Cursor {
	t.Helper()
	cols, err := postorder.BuildColumns(postorder.FromTree(doc), doc.Size())
	if err != nil {
		t.Fatal(err)
	}
	c := new(Cursor)
	c.Reset(cols, nil, tau, hists, labelNodes(cols, hists...))
	return c
}

// labelNodes counts, per histogram, the nodes of cols that carry one of
// its query's labels — what a corpus plan reads off a document's profile.
func labelNodes(cols *postorder.Columns, hists ...*LabelHist) []int {
	counts := make([]int, len(hists))
	for q, h := range hists {
		for _, id := range h.ids[1:] {
			counts[q] += len(cols.Postings(id))
		}
	}
	return counts
}

// TestCandidateBoundSparseMode: with label ids beyond the dense limit
// (a query interned late into a big shared dictionary) the histogram
// switches to its open-addressing table; bounds must stay exact and the
// memory must not scale with the id space.
func TestCandidateBoundSparseMode(t *testing.T) {
	d := dict.New()
	// Push the id space past denseLimit before interning anything the
	// query uses.
	for i := 0; i < 3*denseLimit; i++ {
		d.Intern(fmt.Sprintf("filler%d", i))
	}
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 25; iter++ {
		q := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(10), MaxFanout: 3, Labels: 6})
		doc := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(120), MaxFanout: 4, Labels: 6})
		hist := NewLabelHist(q)
		if hist.keys == nil {
			t.Fatal("expected the sparse representation for late-interned labels")
		}
		if len(hist.need) > 64 {
			t.Fatalf("sparse table has %d slots for a ≤10-label query", len(hist.need))
		}
		tau := 1 + rng.Intn(20)
		buf := New(postorder.NewSliceQueue(postorder.Items(doc)), tau)
		cur := columnCursor(t, doc, tau, hist)
		for {
			ok, err := buf.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			cur.Next()
			got := hist.CandidateBound(buf, buf.Leaf(), buf.Root())
			sub, err := buf.Subtree(d, buf.Leaf(), buf.Root())
			if err != nil {
				t.Fatal(err)
			}
			if want, colGot := naiveMissing(q, sub), cur.LabelBound(0, hist); got != want || colGot != want {
				t.Fatalf("iter %d candidate [%d,%d]: sparse bound %d, column bound %d, want %d", iter, buf.Leaf(), buf.Root(), got, colGot, want)
			}
		}
		if hist.Missing() != q.Size() {
			t.Fatalf("iter %d: window not clean: missing %d, want |Q|=%d", iter, hist.Missing(), q.Size())
		}
	}
}

// TestCandidateBoundZeroAlloc: the first gate's unit of work must not
// allocate — it runs once per candidate on the hot path.
func TestCandidateBoundZeroAlloc(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(2))
	q := tree.Random(d, rng, tree.RandomConfig{Nodes: 8, MaxFanout: 3, Labels: 4})
	doc := tree.Random(d, rng, tree.RandomConfig{Nodes: 60, MaxFanout: 4, Labels: 4})
	hist := NewLabelHist(q)
	buf := New(postorder.NewSliceQueue(postorder.Items(doc)), 12)
	ok, err := buf.Next()
	if err != nil || !ok {
		t.Fatalf("no candidate: ok=%v err=%v", ok, err)
	}
	leaf, root := buf.Leaf(), buf.Root()
	if race.Enabled {
		hist.CandidateBound(buf, leaf, root)
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := testing.AllocsPerRun(100, func() {
		hist.CandidateBound(buf, leaf, root)
	})
	if allocs != 0 {
		t.Errorf("CandidateBound allocates %.1f objects per candidate, want 0", allocs)
	}
}

// TestOnePassBoundsOnAnyWindow: the cursor's walk and Signature, the
// one-pass forms, agree with the naive count on windows far smaller than the query (whose
// counts are wiped label by label), about its size, and larger (wiped
// whole), back to back on one histogram — a count left behind by one
// window would surface in the next — in both representations. Signature
// must also write what it says: per node the label's ordinal and the
// size, and hash equal signatures equally whatever the labels the query
// does not use.
func TestOnePassBoundsOnAnyWindow(t *testing.T) {
	for _, mode := range []string{"dense", "sparse"} {
		d := dict.New()
		if mode == "sparse" {
			for i := 0; i < 2*denseLimit; i++ {
				d.Intern(fmt.Sprintf("filler%d", i))
			}
		}
		rng := rand.New(rand.NewSource(21))
		q := tree.Random(d, rng, tree.RandomConfig{Nodes: 120, MaxFanout: 4, Labels: 60})
		doc := tree.Random(d, rng, tree.RandomConfig{Nodes: 400, MaxFanout: 4, Labels: 90})
		h := NewLabelHist(q)
		if (h.keys == nil) != (mode == "dense") {
			t.Fatalf("%s: wrong representation", mode)
		}
		need := map[int]int{}
		for _, id := range q.LabelIDs() {
			need[id]++
		}
		ids := doc.LabelIDs()
		col := make([]int32, len(ids))
		for i, id := range ids {
			col[i] = int32(id)
		}
		sizes := make([]int, len(ids))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(9)
		}
		for iter := 0; iter < 400; iter++ {
			w := 1 + rng.Intn(3)
			if iter%3 == 1 {
				w = 1 + rng.Intn(len(ids))
			}
			from := rng.Intn(len(ids) - w + 1)
			have := map[int]int{}
			for _, id := range ids[from : from+w] {
				have[id]++
			}
			want := 0
			for id, n := range need {
				want += max(0, n-have[id])
			}
			// The window as the one candidate of a cursor: its root ends it
			// and carries its size.
			colSizes := make([]int32, len(ids))
			colSizes[from+w-1] = int32(w)
			cur := &Cursor{labels: col, sizes: colSizes, roots: []int32{int32(from + w)}}
			var row [1]int32
			if cur.walkBounds(h, row[:]); int(row[0]) != want || h.Missing() != q.Size() {
				t.Fatalf("%s iter %d: walked bound of window [%d,%d) = %d (window left at %d), want %d", mode, iter, from, from+w, row[0], h.Missing(), want)
			}
			sig := make([]int16, 2*w)
			got := Signature(h, ids[from:from+w], sizes[from:from+w], sig)
			if got != want || h.Missing() != q.Size() {
				t.Fatalf("%s iter %d: Signature bound of window [%d,%d) = %d (window left at %d), want %d", mode, iter, from, from+w, got, h.Missing(), want)
			}
			// The same window with every label the query does not use
			// replaced by one it does not use either: same signature.
			twin := make([]int, w)
			for j, id := range ids[from : from+w] {
				twin[j] = id
				if need[id] == 0 {
					twin[j] = -1
				}
				if o := h.Ordinal(id); int(sig[2*j]) != o || int(sig[2*j+1]) != sizes[from+j] || (o != 0) != (need[id] > 0) {
					t.Fatalf("%s iter %d: signature entry %d = (%d, %d), label %d has ordinal %d, size %d", mode, iter, j, sig[2*j], sig[2*j+1], id, o, sizes[from+j])
				}
			}
			twinSig := make([]int16, 2*w)
			if Signature(h, twin, sizes[from:from+w], twinSig); !slices.Equal(twinSig, sig) {
				t.Fatalf("%s iter %d: foreign labels changed the signature: %v, want %v", mode, iter, twinSig, sig)
			}
		}
	}
}
