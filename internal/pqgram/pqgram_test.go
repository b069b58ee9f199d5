package pqgram

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/docstore"
	"tasm/internal/postorder"
	"tasm/internal/race"
	"tasm/internal/ted"
	"tasm/internal/tree"
)

func mk(t testing.TB, d dict.Dict, s string) *tree.Tree {
	t.Helper()
	return tree.MustParse(d, s)
}

func TestProfileSizeFormula(t *testing.T) {
	// A node with f children contributes f+q−1 grams (leaves q−1), so
	// |profile| = Σ_internal (f+q−1) + Σ_leaf (q−1)
	//           = (n−1) + (q−1)·n   (edges plus q−1 per node).
	d := dict.New()
	cases := []string{"{a}", "{a{b}}", "{a{b}{c}}", "{x{a{b}{d}}{a{b}{c}}}", "{a{b{c{d{e}}}}}"}
	for _, s := range cases {
		tr := mk(t, d, s)
		for _, q := range []int{1, 2, 3} {
			pr, err := New(tr, 2, q)
			if err != nil {
				t.Fatal(err)
			}
			want := (tr.Size() - 1) + (q-1)*tr.Size()
			if pr.Size() != want {
				t.Errorf("%s q=%d: profile size %d, want %d", s, q, pr.Size(), want)
			}
		}
	}
}

// TestNewAllocsPerTree: building a profile costs a fixed number of
// allocations whatever the tree's size — nothing is allocated per gram
// or per node.
func TestNewAllocsPerTree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := dict.New()
	rng := rand.New(rand.NewSource(1))
	allocs := func(n int) float64 {
		tr := tree.Random(d, rng, tree.RandomConfig{Nodes: n, MaxFanout: 4, Labels: 6})
		return testing.AllocsPerRun(20, func() {
			if _, err := New(tr, 2, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(12), allocs(600)
	if small != large || small > 6 {
		t.Errorf("New allocates %.0f objects for 12 nodes and %.0f for 600; want the same few", small, large)
	}
}

func TestIdenticalTreesDistanceZero(t *testing.T) {
	d := dict.New()
	a := mk(t, d, "{x{a{b}{d}}{a{b}{c}}}")
	b := mk(t, d, "{x{a{b}{d}}{a{b}{c}}}")
	pa, _ := New(a, 2, 3)
	pb, _ := New(b, 2, 3)
	if got, _ := Distance(pa, pb); got != 0 {
		t.Errorf("distance = %d, want 0", got)
	}
	if got, _ := Normalized(pa, pb); got != 0 {
		t.Errorf("normalized = %g, want 0", got)
	}
}

func TestDisjointLabelsDistanceMax(t *testing.T) {
	d := dict.New()
	a := mk(t, d, "{a{b}{c}}")
	b := mk(t, d, "{x{y}{z}}")
	pa, _ := New(a, 2, 2)
	pb, _ := New(b, 2, 2)
	dist, _ := Distance(pa, pb)
	if dist != pa.Size()+pb.Size() {
		t.Errorf("distance = %d, want total disjoint %d", dist, pa.Size()+pb.Size())
	}
	if n, _ := Normalized(pa, pb); n != 1 {
		t.Errorf("normalized = %g, want 1", n)
	}
}

func TestSmallChangeSmallDistance(t *testing.T) {
	d := dict.New()
	a := mk(t, d, "{r{a}{b}{c}{d}{e}{f}}")
	oneRename := mk(t, d, "{r{a}{b}{c}{d}{e}{x}}")
	reshaped := mk(t, d, "{x{y{a}{b}}{z{c}{d}}{w{e}{f}}}")
	pa, _ := New(a, 2, 3)
	p1, _ := New(oneRename, 2, 3)
	p2, _ := New(reshaped, 2, 3)
	d1, _ := Distance(pa, p1)
	d2, _ := Distance(pa, p2)
	if d1 == 0 {
		t.Error("rename not detected")
	}
	if d1 >= d2 {
		t.Errorf("one rename (%d) should be cheaper than full reshaping (%d)", d1, d2)
	}
}

func TestSensitiveToSiblingOrder(t *testing.T) {
	d := dict.New()
	a := mk(t, d, "{r{a}{b}{c}}")
	b := mk(t, d, "{r{c}{b}{a}}")
	pa, _ := New(a, 2, 2)
	pb, _ := New(b, 2, 2)
	if got, _ := Distance(pa, pb); got == 0 {
		t.Error("pq-grams with q≥2 must distinguish sibling orders")
	}
}

func TestValidation(t *testing.T) {
	d := dict.New()
	tr := mk(t, d, "{a}")
	if _, err := New(tr, 0, 2); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := New(tr, 2, 0); err == nil {
		t.Error("q=0 accepted")
	}
	pa, _ := New(tr, 2, 2)
	pb, _ := New(tr, 3, 2)
	if _, err := Distance(pa, pb); err == nil {
		t.Error("incompatible profiles accepted")
	}
	if _, err := Normalized(pa, pb); err == nil {
		t.Error("incompatible profiles accepted (normalized)")
	}
}

// TestMetricPropertiesQuick: symmetry and identity on random trees, and
// the triangle inequality which the bag symmetric difference satisfies.
func TestMetricPropertiesQuick(t *testing.T) {
	f := func(seed int64, aRaw, bRaw, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := dict.New()
		mkr := func(raw uint8) *Profile {
			n := int(raw)%12 + 1
			tr := tree.Random(d, rng, tree.RandomConfig{Nodes: n, MaxFanout: 3, Labels: 3})
			p, _ := New(tr, 2, 3)
			return p
		}
		pa, pb, pc := mkr(aRaw), mkr(bRaw), mkr(cRaw)
		dab, _ := Distance(pa, pb)
		dba, _ := Distance(pb, pa)
		daa, _ := Distance(pa, pa)
		dac, _ := Distance(pa, pc)
		dcb, _ := Distance(pc, pb)
		return daa == 0 && dab == dba && dab <= dac+dcb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDistanceMatchesBagIntersection: the galloping merge counts the same
// bag intersection as a hash map over one profile, for profiles of equal
// and of very different sizes, in both argument orders.
func TestDistanceMatchesBagIntersection(t *testing.T) {
	f := func(seed int64, aRaw, bRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		d := dict.New()
		mkr := func(raw uint16) *Profile {
			tr := tree.Random(d, rng, tree.RandomConfig{Nodes: int(raw)%300 + 1, MaxFanout: 4, Labels: 4})
			p, _ := New(tr, 2, 3)
			return p
		}
		pa, pb := mkr(aRaw), mkr(bRaw%16)
		bag := map[uint64]int32{}
		hashes, counts := pa.Grams()
		for i, h := range hashes {
			bag[h] = counts[i]
		}
		inter := 0
		hashes, counts = pb.Grams()
		for i, h := range hashes {
			inter += int(min(bag[h], counts[i]))
		}
		want := pa.Size() + pb.Size() - 2*inter
		dab, _ := Distance(pa, pb)
		dba, _ := Distance(pb, pa)
		return dab == want && dba == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCorrelatesWithTED: across random pairs, pq-gram distance must rank
// a near-identical pair below a heavily edited pair most of the time —
// the property that makes it useful as a filter.
func TestCorrelatesWithTED(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	agree := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		d := dict.New()
		base := tree.Random(d, rng, tree.RandomConfig{Nodes: 14, MaxFanout: 3, Labels: 4})
		near := tree.Random(d, rng, tree.RandomConfig{Nodes: 14, MaxFanout: 3, Labels: 4})
		far := tree.Random(d, rng, tree.RandomConfig{Nodes: 14, MaxFanout: 3, Labels: 40})
		tNear := ted.Distance(cost.Unit{}, base, near)
		tFar := ted.Distance(cost.Unit{}, base, far)
		pb0, _ := New(base, 2, 3)
		pn, _ := New(near, 2, 3)
		pf, _ := New(far, 2, 3)
		gNear, _ := Distance(pb0, pn)
		gFar, _ := Distance(pb0, pf)
		if (tNear < tFar) == (gNear < gFar) {
			agree++
		}
	}
	if agree < trials*6/10 {
		t.Errorf("pq-gram agreed with TED ordering only %d/%d times", agree, trials)
	}
}

// TestProfileRoundTrip: a document's profile derived from its store — the
// tree written with docstore.WriteItems, decoded back into columns under
// a dictionary that assigns its labels other ids — equals the profile of
// the tree re-interned into that dictionary, gram for gram. A forest of
// single nodes, which columns may hold, profiles as its roots do.
func TestProfileRoundTrip(t *testing.T) {
	f := func(seed int64, raw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := tree.Random(dict.New(), rng, tree.RandomConfig{Nodes: int(raw)%200 + 1, MaxFanout: 4, Labels: 6})
		var store bytes.Buffer
		if err := docstore.WriteItems(&store, tr.Dict(), postorder.Items(tr)); err != nil {
			t.Fatal(err)
		}
		d := dict.New()
		d.Intern("unrelated")
		im, err := docstore.ParseImage(store.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		cols, err := im.Columns(im.Remap(d))
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromPostorder(cols.Labels(), cols.Sizes(), 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := New(tr.Reintern(d), 2, 3)
		gh, gc := got.Grams()
		wh, wc := want.Grams()
		return got.Size() == want.Size() && slices.Equal(gh, wh) && slices.Equal(gc, wc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	forest, _ := FromPostorder([]int32{0, 1}, []int32{1, 1}, 2, 3)
	a, _ := New(mk(t, dict.New(), "{a}"), 2, 3)
	if dist, _ := Distance(forest, a); forest.Size() != 2*a.Size() || dist != a.Size() {
		t.Errorf("forest {a}{b}: %d grams at distance %d from {a}; want %d and %d", forest.Size(), dist, 2*a.Size(), a.Size())
	}
}
