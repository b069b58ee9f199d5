package ted

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/prb"
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

// distinctFlat returns the i-th of a family of n-node flat views with
// pairwise different signatures under the query {a{b}{c}{b}}: i in base 4
// picks the leaf labels.
func distinctFlat(t testing.TB, d dict.Dict, i, n int) *tree.View {
	alphabet := []string{"a", "b", "c", "x"}
	labels := make([]string, n)
	for j := range labels {
		labels[j] = alphabet[i%len(alphabet)]
		i /= len(alphabet)
	}
	return flatView(t, d, labels)
}

// fillTable fills the slots of c's memo with distinct flat views over the
// query's labels and one it does not use, evaluated unbounded: none has a
// keyroot that is memoised, so each takes one slot.
func fillTable(t testing.TB, c *Computer) {
	t.Helper()
	alphabet := []string{"not-a-query-label"}
	for i := 0; i < c.q.Size(); i++ {
		if !slices.Contains(alphabet, c.q.Label(i)) {
			alphabet = append(alphabet, c.q.Label(i))
		}
	}
	labels := make([]string, 12)
	for i := 0; c.memo.used < memoMaxLoad; i++ {
		for j, x := 0, i; j < len(labels); j, x = j+1, x/len(alphabet) {
			labels[j] = alphabet[x%len(alphabet)]
		}
		c.EvaluateView(flatView(t, c.q.Dict(), labels), math.Inf(1))
	}
}

// entries counts the occupied slots of one kind.
func entries(mm *Memo, kind memoKind) int {
	n := 0
	for _, s := range mm.slots {
		if s.off != 0 && s.kind == kind {
			n++
		}
	}
	return n
}

// TestMemoFitsItsSizeClass: the memo is sized to fill, not spill, the
// seven 8 KiB pages the allocator gives it — one byte more would cost
// every pooled memo a page.
func TestMemoFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Memo{}); size > 56<<10 || size < 56<<10-64 {
		t.Errorf("memo is %d bytes, want just under %d", size, 56<<10)
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
	if n := entries(c.memo, viewEntry); n != 1 {
		t.Errorf("one view evaluated eight times occupies %d view slots, want 1", n)
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
	distinct := func(i, n int) *tree.View { return distinctFlat(t, d, i, n) }
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
	sig := make([]int16, 2*n)
	seen := map[uint32]int{}
	first, second := -1, -1
	for i := 0; i < 1<<22 && first < 0; i++ {
		for j, l := range labelsOf(i) {
			ids[j] = d.Intern(l)
		}
		prb.Signature(c.hist, ids, sizes, sig)
		h := sigHash(sig)
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

// mustMatchReference fails unless row is what an evaluation of tr under
// cutoff must return: δ(Q, T_j) by the recursive reference where that is
// at or below the cutoff, +Inf elsewhere.
func mustMatchReference(t *testing.T, what string, q, tr *tree.Tree, row []float64, cutoff float64) {
	t.Helper()
	for j := range row {
		want := ReferenceDistance(cost.Unit{}, q, tr.Subtree(j))
		if want > cutoff {
			want = math.Inf(1)
		}
		if row[j] != want {
			t.Fatalf("%s, cutoff %g: row[%d] = %g, want %g", what, cutoff, j, row[j], want)
		}
	}
}

// keyrootSizes lists the sizes of the keyroot subtrees of v, in the order
// the dynamic program visits them.
func keyrootSizes(v *tree.View) []int {
	var sizes []int
	for _, k := range v.Keyroots() {
		sizes = append(sizes, k-v.LMLs()[k]+1)
	}
	return sizes
}

// TestKeyrootMemo: the keyroot entries of the memo. A subtree shared by
// views at different positions and depths is computed once — a later view
// runs no pair for any keyroot inside it and its row is still the
// reference's — under the same guard as a view's row (an entry computed
// under a tighter cutoff is recomputed in place), within the same fixed
// table (a full table or slab stores nothing more and stays correct),
// bypassed by a probe, and with the record of an abandoned pair carried
// into the outcome.
func TestKeyrootMemo(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a{b}{c{d}}}")
	qKeys := len(q.Keyroots())
	// The shared subtree follows a left sibling in every view, so its root
	// and the keyroots inside it are keyroots of the view. Two of them, c
	// and b, are neither a leaf nor the view's root: those are memoised.
	const shared = "{c{d}{b{a}{x}}{y}}"
	const sharedKeyroots = 2
	trees := []*tree.Tree{
		tree.MustParse(d, "{a{b}"+shared+"}"),             // depth 1, second child
		tree.MustParse(d, "{r{x{z}{w}"+shared+"}{b}}"),    // depth 2, third child
		tree.MustParse(d, "{c{d}{e{f}{g{h}"+shared+"}}}"), // depth 3, second child
	}
	views := make([]*tree.View, len(trees))
	for i, tr := range trees {
		views[i] = viewOf(t, tr)
	}
	// eval evaluates view i on c and fails unless its row is the
	// reference's, it is not a view hit, and exactly hits of its keyroots
	// were loaded — each one pairs the dynamic program did not run.
	eval := func(c *Computer, i int, cutoff float64, hits int, what string) Outcome {
		t.Helper()
		pairs, loaded := c.pairs, c.keyrootHits
		row, o, hit := c.EvaluateView(views[i], cutoff)
		if hit {
			t.Fatalf("%s: view %d answered from a view entry", what, i)
		}
		if got := c.keyrootHits - loaded; got != hits {
			t.Fatalf("%s: view %d loaded %d keyroots, want %d", what, i, got, hits)
		}
		if got, want := c.pairs-pairs, (len(views[i].Keyroots())-hits)*qKeys; got != want {
			t.Fatalf("%s: view %d ran %d keyroot pairs, want %d", what, i, got, want)
		}
		mustMatchReference(t, fmt.Sprintf("%s: view %d", what, i), q, trees[i], row, cutoff)
		return o
	}

	t.Run("shared subtree", func(t *testing.T) {
		c := NewComputer(cost.Unit{}, q)
		eval(c, 0, math.Inf(1), 0, "first view")
		eval(c, 1, math.Inf(1), sharedKeyroots, "second view")
		eval(c, 2, math.Inf(1), sharedKeyroots, "third view")
		// e and g in the third view are new keyroot subtrees.
		if n := entries(c.memo, keyrootEntry); n != sharedKeyroots+2 {
			t.Errorf("%d keyroot entries, want %d", n, sharedKeyroots+2)
		}
	})

	t.Run("stored cutoff", func(t *testing.T) {
		c := NewComputer(cost.Unit{}, q)
		eval(c, 0, 1, 0, "stored under cutoff 1")
		stored := entries(c.memo, keyrootEntry)
		eval(c, 1, math.Inf(1), 0, "looser than the stored cutoff")
		if n := entries(c.memo, keyrootEntry); n != stored {
			t.Errorf("recomputing stored keyroots took %d entries, want the %d they had", n, stored)
		}
		eval(c, 2, 3, sharedKeyroots, "tighter than the recomputed entries' cutoff")
	})

	t.Run("full table", func(t *testing.T) {
		c := NewComputer(cost.Unit{}, q)
		fillTable(t, c)
		eval(c, 0, math.Inf(1), 0, "full table")
		eval(c, 1, math.Inf(1), 0, "full table, shared subtree")
		if c.memo.used != memoMaxLoad {
			t.Errorf("a full table took %d entries more", c.memo.used-memoMaxLoad)
		}
	})

	t.Run("full slab", func(t *testing.T) {
		c := NewComputer(cost.Unit{}, q)
		room := func() int { return memoSlab - memoHead - int(c.memo.free) }
		i := 0
		for ; room() >= 3*memoMaxView; i++ {
			c.EvaluateView(distinctFlat(t, d, i, memoMaxView), 300)
		}
		c.EvaluateView(distinctFlat(t, d, i, room()/3), 300)
		if room() >= 3 || c.memo.used >= memoMaxLoad {
			t.Fatalf("slab not full (%d entries free) or the table is (%d slots)", room(), c.memo.used)
		}
		used := c.memo.used
		eval(c, 0, math.Inf(1), 0, "full slab")
		eval(c, 1, math.Inf(1), 0, "full slab, shared subtree")
		if c.memo.used != used {
			t.Errorf("a full slab took %d entries more", c.memo.used-used)
		}
	})

	t.Run("probe", func(t *testing.T) {
		c := NewComputer(cost.Unit{}, q)
		var got []int
		c.SetProbe(probeFunc(func(size int) { got = append(got, size) }))
		for _, i := range []int{0, 1, 1, 2} {
			got = got[:0]
			eval(c, i, math.Inf(1), 0, "probed")
			if want := keyrootSizes(views[i]); !slices.Equal(got, want) {
				t.Fatalf("view %d reported relevant subtrees %v, want %v", i, got, want)
			}
		}
		if c.memo.used != 0 {
			t.Errorf("a probed evaluation stored %d entries", c.memo.used)
		}
	})

	t.Run("abort bit", func(t *testing.T) {
		// Under cutoff 0 against {a{b}}, the pair of the keyroot y of
		// {y{x}{b}} is abandoned at its first row (no prefix of x, b hosts
		// b at cost 0), and no other pair of either view is: every other
		// keyroot's leftmost leaf is b. So the second view aborts only
		// through the record stored with y's columns.
		q := tree.MustParse(d, "{a{b}}")
		first, second := tree.MustParse(d, "{a{b}{y{x}{b}}}"), tree.MustParse(d, "{a{b}{c{b}{y{x}{b}}}}")
		v1, v2 := viewOf(t, first), viewOf(t, second)
		want := freshRow(q, v2, 0)
		if _, o, _ := NewComputer(cost.Unit{}, q).EvaluateView(v2, 0); o != Aborted {
			t.Fatalf("second view under cutoff 0 on a fresh computer: outcome %d, want Aborted", o)
		}
		c := NewComputer(cost.Unit{}, q)
		if _, o, _ := c.EvaluateView(v1, 0); o != Aborted {
			t.Fatalf("first view under cutoff 0: outcome %d, want Aborted", o)
		}
		hits := c.keyrootHits
		row, o, _ := c.EvaluateView(v2, 0)
		if c.keyrootHits != hits+1 || o != Aborted || !slices.Equal(row, want) {
			t.Errorf("second view after the first: %d keyroots loaded, outcome %d, row %v; want 1, Aborted, %v", c.keyrootHits-hits, o, row, want)
		}
		// Stored under no cutoff, y's columns record no abandoned pair, and
		// its pair is what would abort: the outcome reads Completed where a
		// fresh computer's reads Aborted. The row is the same.
		c = NewComputer(cost.Unit{}, q)
		c.EvaluateView(v1, math.Inf(1))
		row, o, _ = c.EvaluateView(v2, 0)
		if o != Completed || !slices.Equal(row, want) {
			t.Errorf("second view after the first unbounded: outcome %d, row %v; want Completed, %v", o, row, want)
		}
	})
}

// TestMemoSharedByComputers: computers of different queries lent one memo
// — a batch's, evaluating one after another — each see only their own
// entries, views and keyroots alike, however they interleave; a memo that
// has lent every owner leaves later computers without one; Reset empties
// it for the next computers.
func TestMemoSharedByComputers(t *testing.T) {
	d := dict.New()
	const shared = "{c{d}{b{a}{x}}{y}}"
	first, second := viewOf(t, tree.MustParse(d, "{a{b}"+shared+"}")), viewOf(t, tree.MustParse(d, "{r{x{z}{w}"+shared+"}{b}}"))
	var mm *Memo
	c1 := NewComputerWith(cost.Unit{}, tree.MustParse(d, "{a{b}{c{d}}}"), &mm)
	c2 := NewComputerWith(cost.Unit{}, tree.MustParse(d, "{c{b}{y}}"), &mm)
	if mm == nil || c1.memo != mm || c2.memo != mm || c1.owner == c2.owner {
		t.Fatalf("two computers lent one memo: memos %p %p of %p, owners %d %d", c1.memo, c2.memo, mm, c1.owner, c2.owner)
	}
	for _, step := range []struct {
		c    *Computer
		v    *tree.View
		hit  bool
		keys int // keyroots loaded from the memo
		what string
	}{
		{c1, first, false, 0, "first query, first view"},
		{c2, first, false, 0, "second query, the view the first evaluated"},
		{c1, first, true, 0, "first query again"},
		{c2, first, true, 0, "second query again"},
		{c2, second, false, 2, "second query, the shared subtree elsewhere"},
		{c1, second, false, 2, "first query, the shared subtree elsewhere"},
	} {
		loaded := step.c.keyrootHits
		evalWant(t, step.c, step.v, math.Inf(1), step.hit, step.what)
		if got := step.c.keyrootHits - loaded; got != step.keys {
			t.Fatalf("%s: %d keyroots loaded, want %d", step.what, got, step.keys)
		}
	}

	// Two queries under which one view has one signature and different
	// rows, lent owners whose probes start at the same slot for every
	// hash (the hash is XORed in): only the owner tag keeps the second
	// from the first one's entry.
	mm.Reset()
	near := NewComputerWith(cost.Unit{}, tree.MustParse(d, "{a{b}}"), &mm)
	for probeStart(0, mm.owners+1) != probeStart(0, near.owner) {
		mm.owners++
	}
	far := NewComputerWith(cost.Unit{}, tree.MustParse(d, "{y{a{b}}}"), &mm)
	v := viewOf(t, tree.MustParse(d, "{a{b}{b}}"))
	if probeStart(0, near.owner) != probeStart(0, far.owner) || slices.Equal(freshRow(near.q, v, math.Inf(1)), freshRow(far.q, v, math.Inf(1))) {
		t.Fatal("the two computers' probes start apart, or their rows are equal: the leg tests nothing")
	}
	evalWant(t, near, v, math.Inf(1), false, "one owner")
	evalWant(t, far, v, math.Inf(1), false, "another owner, same probe start and signature")

	mm.owners = math.MaxUint16 - 1
	last := NewComputerWith(cost.Unit{}, tree.MustParse(d, "{a{b}}"), &mm)
	none := NewComputerWith(cost.Unit{}, tree.MustParse(d, "{a{b}}"), &mm)
	if last.memo != mm || none.memo != nil {
		t.Fatalf("the last owner: memo %p, the one after it: memo %p; want %p and none", last.memo, none.memo, mm)
	}
	evalWant(t, none, first, math.Inf(1), false, "a computer without a memo")
	evalWant(t, none, first, math.Inf(1), false, "a computer without a memo, again")

	mm.Reset()
	again := NewComputerWith(cost.Unit{}, tree.MustParse(d, "{a{b}{c{d}}}"), &mm)
	if again.memo != mm || again.owner != 1 || mm.used != 0 {
		t.Fatalf("after Reset: owner %d, %d slots occupied; want 1, 0", again.owner, mm.used)
	}
	evalWant(t, again, first, math.Inf(1), false, "after Reset")
}
