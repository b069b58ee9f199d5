package ted

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/tree"
)

// freshRow is the row a computer that has evaluated nothing else returns
// for v under cutoff: the memo-free answer every other evaluation of the
// same (Q, v, cutoff) must reproduce.
func freshRow(q *tree.Tree, v *tree.View, cutoff float64) []float64 {
	row, _, hit := NewComputer(cost.Unit{}, q).EvaluateView(v, cutoff)
	if hit {
		panic("a fresh computer answered from its memo")
	}
	return slices.Clone(row)
}

// evalWant evaluates v on c and fails unless the row is the fresh one and
// the evaluation was (was not) answered from the memo.
func evalWant(t *testing.T, c *Computer, v *tree.View, cutoff float64, wantHit bool, what string) Outcome {
	t.Helper()
	row, o, hit := c.EvaluateView(v, cutoff)
	if hit != wantHit {
		t.Fatalf("%s, cutoff %g: memo hit %v, want %v", what, cutoff, hit, wantHit)
	}
	if want := freshRow(c.q, v, cutoff); !slices.Equal(row, want) {
		t.Fatalf("%s, cutoff %g (memo hit %v): row %v, want %v", what, cutoff, hit, row, want)
	}
	return o
}

// flatView is a view of a root over n−1 leaves carrying the given labels
// (postorder: the leaves, then the root).
func flatView(t testing.TB, d dict.Dict, labels []string) *tree.View {
	t.Helper()
	v := &tree.View{}
	ids, sizes := v.Reset(d, len(labels))
	for j, l := range labels {
		ids[j], sizes[j] = d.Intern(l), 1
	}
	sizes[len(labels)-1] = len(labels)
	if err := v.Build(); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMemoFitsItsSizeClass: the memo is sized to fill, not spill, the
// allocator's 24 KiB class — one byte more would cost every query 27 KiB.
func TestMemoFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(memo{}); size > 24<<10 || size < 24<<10-64 {
		t.Errorf("memo is %d bytes, want just under %d", size, 24<<10)
	}
	if unsafe.Sizeof(memoSlot{}) != 16 {
		t.Errorf("memoSlot is %d bytes; memoSlab assumes 16", unsafe.Sizeof(memoSlot{}))
	}
}

// TestMemoHitReportsRecordedOutcome: a repeated view is answered from
// the memo, masked to the current cutoff, under the outcome of the
// evaluation that computed its row — and only when that evaluation's
// cutoff was no tighter. A row computed under a tighter cutoff knows less
// than the caller asks for: it is recomputed and replaced.
func TestMemoHitReportsRecordedOutcome(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(3))
	q := tree.Random(d, rng, tree.RandomConfig{Nodes: 8, MaxFanout: 3, Labels: 3})
	v := viewOf(t, tree.Random(d, rng, tree.RandomConfig{Nodes: 60, MaxFanout: 4, Labels: 3}))

	c := NewComputer(cost.Unit{}, q)
	if o := evalWant(t, c, v, math.Inf(1), false, "first, unbounded"); o != Completed {
		t.Fatalf("unbounded evaluation: outcome %d, want Completed", o)
	}
	// The DP would abort under cutoff 0; the hit reports what it recorded.
	if o := evalWant(t, c, v, 0, true, "repeat under cutoff 0"); o != Completed {
		t.Errorf("hit on a row computed unbounded: outcome %d, want the recorded Completed", o)
	}

	c = NewComputer(cost.Unit{}, q)
	if o := evalWant(t, c, v, 1, false, "first, cutoff 1"); o != Aborted {
		t.Fatalf("cutoff 1: outcome %d, want Aborted", o)
	}
	evalWant(t, c, v, 1, true, "repeat at the stored cutoff")
	evalWant(t, c, v, 0.5, true, "repeat at a tighter, fractional cutoff")
	evalWant(t, c, v, 9, false, "repeat at a looser cutoff than the row was computed under")
	evalWant(t, c, v, 5, true, "repeat below the replaced row's cutoff")
	evalWant(t, c, v, math.NaN(), false, "repeat unbounded")
	if o := evalWant(t, c, v, 1, true, "repeat after an unbounded evaluation"); o != Completed {
		t.Errorf("hit on the replaced row: outcome %d, want Completed", o)
	}
	if c.memo.used != 1 {
		t.Errorf("one view evaluated eight times occupies %d slots, want 1", c.memo.used)
	}
}

// TestMemoSharesRowsAcrossForeignLabels: views that differ only in labels
// the query does not use have one signature and share one row; views that
// differ in where a query label sits do not.
func TestMemoSharesRowsAcrossForeignLabels(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a{b}{c}{b}}")
	c := NewComputer(cost.Unit{}, q)
	evalWant(t, c, flatView(t, d, []string{"b", "x", "c", "y", "a"}), 6, false, "first")
	evalWant(t, c, flatView(t, d, []string{"b", "y", "c", "z", "a"}), 6, true, "foreign labels renamed")
	evalWant(t, c, flatView(t, d, []string{"b", "z", "c", "z", "a"}), 4, true, "foreign labels merged")
	evalWant(t, c, flatView(t, d, []string{"b", "x", "b", "y", "a"}), 6, false, "a query label changed")
	evalWant(t, c, flatView(t, d, []string{"x", "b", "c", "y", "a"}), 6, false, "a query label moved")
	evalWant(t, c, viewOf(t, tree.MustParse(d, "{a{b{x}}{c}{y}}")), 6, false, "same label sequence, another shape")
	if c.memo.used != 4 {
		t.Errorf("%d slots occupied, want 4", c.memo.used)
	}
}

// TestMemoCapacity: the table holds a fixed number of views in a fixed
// slab and neither grows nor evicts. One distinct view more than fits — by
// slots, with small views, or by slab, with large ones — is evaluated by
// the DP every time, correctly; so is a view too large to look up; and
// what was stored keeps hitting.
func TestMemoCapacity(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a{b}{c}{b}}")
	alphabet := []string{"a", "b", "c", "x"}
	// distinct returns the i-th of a family of n-node flat views with
	// pairwise different signatures: i in base 4 picks the leaf labels.
	distinct := func(i, n int) *tree.View {
		labels := make([]string, n)
		for j := range labels {
			labels[j] = alphabet[i%len(alphabet)]
			i /= len(alphabet)
		}
		return flatView(t, d, labels)
	}
	for _, tc := range []struct {
		name  string
		nodes int
		fits  int
	}{
		{"slots", 8, memoMaxLoad},
		{"slab", memoMaxView, (memoSlab - memoHead) / (3 * memoMaxView)},
	} {
		c := NewComputer(cost.Unit{}, q)
		for i := 0; i < tc.fits; i++ {
			evalWant(t, c, distinct(i, tc.nodes), 5, false, tc.name+": filling")
		}
		if int(c.memo.used) != tc.fits {
			t.Fatalf("%s: %d views stored, want %d", tc.name, c.memo.used, tc.fits)
		}
		free := c.memo.free
		for rep := 0; rep < 2; rep++ {
			evalWant(t, c, distinct(tc.fits, tc.nodes), 5, false, tc.name+": one more than fits")
		}
		if int(c.memo.used) != tc.fits || c.memo.free != free {
			t.Errorf("%s: a view that does not fit changed the table: %d slots, slab at %d (was %d, %d)", tc.name, c.memo.used, c.memo.free, tc.fits, free)
		}
		for i := 0; i < tc.fits; i++ {
			evalWant(t, c, distinct(i, tc.nodes), 5, true, tc.name+": stored views after the overflow")
		}
	}

	c := NewComputer(cost.Unit{}, q)
	big := distinct(7, memoMaxView+1)
	for rep := 0; rep < 2; rep++ {
		evalWant(t, c, big, 300, false, "a view over memoMaxView nodes")
	}
	if c.memo.used != 0 {
		t.Errorf("an oversize view was stored")
	}

	// A query whose ordinals or distances could overflow an int16 gets no
	// memo at all.
	root := tree.NewNode("r")
	for i := 0; i < math.MaxInt16-memoMaxView; i++ {
		root.AddChild(tree.NewNode("l"))
	}
	if c := NewComputer(cost.Unit{}, tree.FromNode(d, root)); c.memo != nil {
		t.Errorf("a %d-node query got a memo", root.Size())
	}
	if fw, _ := cost.NewFanoutWeighted(0.5, 4); NewComputer(fw, q).memo != nil {
		t.Errorf("a non-unit model got a memo: its rows depend on more than the signature")
	}
}

// TestMemoHashCollision: two different signatures with the same 32-bit
// hash — found by birthday search, not forced through a hook, so the
// production hash is what is tested — land on one probe sequence and must
// still get their own rows: a hash match alone never makes a hit.
func TestMemoHashCollision(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a{b}{c}{b}}")
	c := NewComputer(cost.Unit{}, q)
	const n = 14
	alphabet := []string{"a", "b", "c", "x"}
	labelsOf := func(i int) []string {
		labels := make([]string, n)
		for j := range labels {
			labels[j] = alphabet[i%len(alphabet)]
			i /= len(alphabet)
		}
		return labels
	}
	ids := make([]int, n)
	sizes := make([]int, n)
	for j := range sizes {
		sizes[j] = 1
	}
	sizes[n-1] = n
	seen := map[uint32]int{}
	first, second := -1, -1
	for i := 0; i < 1<<22 && first < 0; i++ {
		for j, l := range labelsOf(i) {
			ids[j] = d.Intern(l)
		}
		_, h := c.hist.Signature(ids, sizes, nil)
		if prev, ok := seen[h]; ok {
			first, second = prev, i
		}
		seen[h] = i
	}
	if first < 0 {
		t.Fatal("no 32-bit collision among 4M signatures: the search, or the hash, is broken")
	}
	t.Logf("collision after %d signatures: %v / %v", second, labelsOf(first), labelsOf(second))
	a, b := flatView(t, d, labelsOf(first)), flatView(t, d, labelsOf(second))
	if slices.Equal(freshRow(q, a, math.Inf(1)), freshRow(q, b, math.Inf(1))) {
		t.Log("the colliding views happen to have equal rows; the test is weaker than intended")
	}
	evalWant(t, c, a, 9, false, "first of the colliding pair")
	evalWant(t, c, b, 9, false, "second of the colliding pair")
	evalWant(t, c, a, 9, true, "first again")
	evalWant(t, c, b, 9, true, "second again")
	if c.memo.used != 2 {
		t.Errorf("%d slots occupied, want 2", c.memo.used)
	}
}

// TestProbeBypassesMemo: with a probe installed every evaluation runs
// the dynamic program and reports every relevant subtree, repeats
// included — what the paper's figures count — and nothing is stored.
func TestProbeBypassesMemo(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(9))
	q := tree.Random(d, rng, tree.RandomConfig{Nodes: 6, MaxFanout: 3, Labels: 3})
	v := viewOf(t, tree.Random(d, rng, tree.RandomConfig{Nodes: 30, MaxFanout: 4, Labels: 3}))
	var want []int
	for _, k := range v.Keyroots() {
		want = append(want, k-v.LMLs()[k]+1)
	}
	c := NewComputer(cost.Unit{}, q)
	var got []int
	c.SetProbe(probeFunc(func(size int) { got = append(got, size) }))
	for rep := 0; rep < 3; rep++ {
		got = got[:0]
		evalWant(t, c, v, 40, false, "probed evaluation")
		if !slices.Equal(got, want) {
			t.Fatalf("evaluation %d reported relevant subtrees %v, want %v", rep, got, want)
		}
	}
	if c.memo.used != 0 {
		t.Errorf("a probed evaluation stored its row")
	}
	c.SetProbe(nil)
	evalWant(t, c, v, 40, false, "first unprobed evaluation")
	evalWant(t, c, v, 40, true, "second unprobed evaluation")
}
