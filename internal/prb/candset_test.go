package prb

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"tasm/internal/datagen"
	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/race"
	"tasm/internal/tree"
)

// fixture is one generated document of the benchmark's shapes with its
// columns.
type fixture struct {
	name string
	doc  *tree.Tree
	cols *postorder.Columns
}

func fixtures(t testing.TB) []fixture {
	t.Helper()
	var out []fixture
	for _, fx := range []struct {
		name string
		ds   *datagen.Dataset
	}{{"xmark", datagen.XMark(1)}, {"dblp", datagen.DBLP(10)}} {
		doc, err := fx.ds.Tree(dict.New(), 1)
		if err != nil {
			t.Fatal(err)
		}
		cols, err := postorder.BuildColumns(postorder.FromTree(doc), doc.Size())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fixture{fx.name, doc, cols})
	}
	return out
}

// TestCandidateSetMatchesDefinition: a cached set's roots are cand(T, τ)
// as Definition 9 gives it (CandidatesOf, 0-based, so +1), and its node
// map sends every node inside a candidate to that candidate and every
// other node to none, on an XMark document and a DBLP bibliography at
// thresholds from single nodes to whole records and beyond.
func TestCandidateSetMatchesDefinition(t *testing.T) {
	for _, fx := range fixtures(t) {
		for _, tau := range []int{1, 2, 5, 21, 27, 82, 300} {
			set := newCandidateSet(fx.cols, tau, new([]int32))
			want := CandidatesOf(fx.doc, tau)
			if len(set.roots) != len(want) {
				t.Fatalf("%s τ=%d: %d cached roots, Definition 9 gives %d", fx.name, tau, len(set.roots), len(want))
			}
			covered := 0
			for j, i := range want {
				if int(set.roots[j]) != i+1 {
					t.Fatalf("%s τ=%d: root %d is %d, want %d", fx.name, tau, j, set.roots[j], i+1)
				}
				covered += fx.doc.SubtreeSize(i)
			}
			if set.covered != covered {
				t.Fatalf("%s τ=%d: the set covers %d nodes, its candidates %d", fx.name, tau, set.covered, covered)
			}
			for b, j := range set.first {
				start := b<<blockShift + 1 // the block's first node id
				if want := sort.Search(len(want), func(j int) bool { return want[j]+1 >= start }); int(j) != want {
					t.Fatalf("%s τ=%d: block %d starts at candidate %d, want %d", fx.name, tau, b, j, want)
				}
			}
			j := 0 // the first candidate whose root is at or after node id
			for id := 1; id <= fx.cols.Len(); id++ {
				for j < len(want) && want[j]+1 < id {
					j++
				}
				wantOf := -1
				if j < len(want) && id > want[j]+1-fx.doc.SubtreeSize(want[j]) {
					wantOf = j
				}
				gotOf := -1
				if d := set.local[id-1]; d != aboveTau {
					gotOf = int(set.first[(id-1)>>blockShift]) + int(d)
				}
				if gotOf != wantOf {
					t.Fatalf("%s τ=%d: node %d maps to candidate %d, want %d", fx.name, tau, id, gotOf, wantOf)
				}
			}
			blocks := (fx.cols.Len() + 1<<blockShift - 1) >> blockShift
			if got, want := set.Bytes(), int64(4*len(want)+fx.cols.Len()+4*blocks); got != want {
				t.Fatalf("%s τ=%d: Bytes = %d, want 4 per candidate, 1 per node and 4 per block = %d", fx.name, tau, got, want)
			}
		}
	}
}

// TestCandidateCacheOtherTau: a cache whose CandidateSlots slots hold
// τ = 21, 27 and the thresholds after them serves τ = 22 by the uncached
// route — the cursor locates the roots into its own scratch, never a
// set's, and searches the roots for the postings — with bounds equal to a
// cursor given no cache, reports the miss, allocates nothing, and leaves
// every set as it was; each held τ is then served from its own set.
func TestCandidateCacheOtherTau(t *testing.T) {
	taus := []int{21, 27}
	for len(taus) < CandidateSlots {
		taus = append(taus, 30+3*len(taus))
	}
	for _, fx := range fixtures(t) {
		rng := rand.New(rand.NewSource(1))
		var hists []*LabelHist
		for len(hists) < 4 {
			q, err := datagen.QueryFromDocument(fx.doc, rng, 8)
			if err != nil {
				t.Fatal(err)
			}
			hists = append(hists, NewLabelHist(q))
		}
		counts := labelNodes(fx.cols, hists...)
		cache := new(CandidateCache)
		cur := new(Cursor)
		for _, tau := range taus {
			if cur.Reset(fx.cols, cache, tau, hists, counts); cur.Missed() {
				t.Fatalf("%s: τ=%d missed a cache with a free slot", fx.name, tau)
			}
		}
		var sets [CandidateSlots]*candidateSet
		for i := range sets {
			if sets[i] = cache.slots[i].Load(); sets[i] == nil || sets[i].tau != taus[i] {
				t.Fatalf("%s: slot %d does not hold τ=%d", fx.name, i, taus[i])
			}
		}
		sum := cache.Checksum()

		want := new(Cursor)
		check := func(tau int, set *candidateSet) {
			t.Helper()
			cur.Reset(fx.cols, cache, tau, hists, counts)
			want.Reset(fx.cols, nil, tau, hists, counts)
			if cur.Missed() != (set == nil) {
				t.Fatalf("%s τ=%d: Missed = %v", fx.name, tau, cur.Missed())
			}
			roots := cur.own // a miss reads the cursor's own roots, a hit its set's
			if set != nil {
				roots = set.roots
			}
			if unsafe.SliceData(cur.roots) != unsafe.SliceData(roots) {
				t.Fatalf("%s τ=%d (cached set %v): the cursor reads the wrong roots", fx.name, tau, set != nil)
			}
			if !slices.Equal(cur.roots, want.roots) || !slices.Equal(cur.bounds, want.bounds) || cur.PostingRows() != want.PostingRows() {
				t.Fatalf("%s τ=%d: the cached cursor's roots, bounds or routes differ from an uncached cursor's", fx.name, tau)
			}
			if fx.name == "xmark" && cur.PostingRows() == 0 {
				t.Fatalf("%s τ=%d: no row read the postings, so the node map went untested", fx.name, tau)
			}
		}
		check(22, nil)
		for i, tau := range taus {
			check(tau, sets[i])
			check(22, nil)
		}
		for i := range sets {
			if cache.slots[i].Load() != sets[i] {
				t.Fatalf("%s: a miss replaced slot %d", fx.name, i)
			}
		}
		if cache.Checksum() != sum {
			t.Fatalf("%s: the cached sets changed under scans at other thresholds", fx.name)
		}
		if race.Enabled {
			continue // allocation counts are not meaningful under -race
		}
		if allocs := testing.AllocsPerRun(20, func() { cur.Reset(fx.cols, cache, 22, hists, counts) }); allocs != 0 {
			t.Fatalf("%s: a Reset whose τ finds every slot taken allocates %.1f objects, want 0", fx.name, allocs)
		}
	}
}
