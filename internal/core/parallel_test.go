package core

// Tests of the split column scan: PostorderBatchColumnsInto with workers ≠ 0
// cuts a document's candidates into ranges scanned concurrently, each into
// rankings of its own that cooperate through the shared cutoffs. Under the
// strict margin the answer must be byte-identical to the sequential scan's,
// trees included, for any number of ranges.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/ranking"
	"tasm/internal/tree"
)

// columnsOf builds the resident columns of doc.
func columnsOf(t testing.TB, doc *tree.Tree) *postorder.Columns {
	t.Helper()
	cols, err := postorder.BuildColumns(postorder.FromTree(doc), 0)
	if err != nil {
		t.Fatal(err)
	}
	return cols
}

// rangesTopK answers queries over cols with fresh rankings of k, the
// candidates split into workers ranges (0: the sequential scan).
func rangesTopK(queries []*tree.Tree, cols *postorder.Columns, k, workers int, opts Options) ([][]Match, error) {
	ranks := make([]*ranking.Heap, len(queries))
	for i := range ranks {
		ranks[i] = ranking.New(k)
	}
	if err := PostorderBatchColumnsInto(queries, cols, nil, nil, ranks, 0, workers, opts); err != nil {
		return nil, err
	}
	out := make([][]Match, len(ranks))
	for i, r := range ranks {
		out[i] = r.Sorted()
	}
	return out, nil
}

// mustEqualTrees fails unless both rankings carry the same subtrees.
func mustEqualTrees(t *testing.T, ctx string, got, want []Match) {
	t.Helper()
	mustEqualMatches(t, ctx, got, want)
	for i := range want {
		if fmt.Sprint(got[i].Tree) != fmt.Sprint(want[i].Tree) {
			t.Fatalf("%s: match %d tree %v, want %v", ctx, i, got[i].Tree, want[i].Tree)
		}
	}
}

// TestParallelMatchesSequentialQuick: on random instances — batches of 1–4
// queries, up to 8 ranges, often more ranges than candidates — the split
// scan returns exactly the sequential scan's rankings, trees included.
func TestParallelMatchesSequentialQuick(t *testing.T) {
	f := func(seed int64, qRaw, tRaw, kRaw, wRaw, bRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := dict.New()
		queries := make([]*tree.Tree, int(bRaw)%4+1)
		for i := range queries {
			queries[i] = tree.Random(d, rng, tree.RandomConfig{Nodes: int(qRaw)%6 + 1 + i, MaxFanout: 3, Labels: 4})
		}
		cols := columnsOf(t, tree.Random(d, rng, tree.RandomConfig{Nodes: int(tRaw)%60 + 1, MaxFanout: 4, Labels: 4}))
		k := int(kRaw)%6 + 1
		seq, err1 := rangesTopK(queries, cols, k, 0, Options{})
		par, err2 := rangesTopK(queries, cols, k, int(wRaw)%8+1, Options{})
		if err1 != nil || err2 != nil {
			t.Fatalf("sequential: %v, split: %v", err1, err2)
		}
		for i := range seq {
			mustEqualTrees(t, fmt.Sprintf("seed %d query %d", seed, i), par[i], seq[i])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestParallelExample2(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a{b}{c}}")
	doc := tree.MustParse(d, "{x{a{b}{d}}{a{b}{c}}}")
	out, err := rangesTopK([]*tree.Tree{q}, columnsOf(t, doc), 2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := out[0]
	if len(got) != 2 || got[0].Dist != 0 || got[1].Dist != 1 {
		t.Errorf("got %+v", got)
	}
	// Trees must be materialized and correct in split mode too.
	if got[0].Tree == nil || got[0].Tree.String() != "{a{b}{c}}" {
		t.Errorf("first match tree = %v", got[0].Tree)
	}
}

// TestParallelDefaultWorkers: workers < 0 selects GOMAXPROCS ranges.
func TestParallelDefaultWorkers(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(2))
	q := tree.Random(d, rng, tree.RandomConfig{Nodes: 4, MaxFanout: 3, Labels: 3})
	cols := columnsOf(t, tree.Random(d, rng, tree.RandomConfig{Nodes: 200, MaxFanout: 5, Labels: 5}))
	got, err := rangesTopK([]*tree.Tree{q}, cols, 3, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rangesTopK([]*tree.Tree{q}, cols, 3, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualTrees(t, "GOMAXPROCS ranges", got[0], want[0])
}

func TestParallelValidation(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a}")
	cols := columnsOf(t, tree.MustParse(d, "{a{b}}"))
	if _, err := rangesTopK([]*tree.Tree{nil}, cols, 1, 2, Options{}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := rangesTopK(nil, cols, 1, 2, Options{}); err == nil {
		t.Error("empty batch accepted")
	}
	if err := PostorderBatchColumnsInto([]*tree.Tree{q}, cols, nil, nil, []*ranking.Heap{ranking.New(1), ranking.New(1)}, 0, 2, Options{}); err == nil {
		t.Error("more rankings than queries accepted")
	}
	if err := PostorderBatchColumnsInto([]*tree.Tree{q}, cols, nil, []int{1, 2}, []*ranking.Heap{ranking.New(1)}, 0, 2, Options{}); err == nil {
		t.Error("more label-node counts than queries accepted")
	}
}

func TestParallelEmptyDocument(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a}")
	cols, err := postorder.BuildColumns(postorder.NewSliceQueue(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rangesTopK([]*tree.Tree{q}, cols, 2, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 0 {
		t.Errorf("empty document returned %d matches", len(got[0]))
	}
}

// atomicProbe counts probe callbacks from several goroutines, and cancels
// a context once it has seen cancelAt candidates.
type atomicProbe struct {
	candidates, pruned, relevant atomic.Int64
	cancelAt                     int64
	cancel                       context.CancelFunc
}

func (p *atomicProbe) Candidate(int) {
	if p.candidates.Add(1) == p.cancelAt {
		p.cancel()
	}
}
func (p *atomicProbe) Pruned(int)          { p.pruned.Add(1) }
func (p *atomicProbe) RelevantSubtree(int) { p.relevant.Add(1) }

// TestParallelWithProbe: with ranges, probe callbacks come from several
// goroutines; every candidate is still reported exactly once.
func TestParallelWithProbe(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(4))
	q := tree.Random(d, rng, tree.RandomConfig{Nodes: 4, MaxFanout: 3, Labels: 3})
	cols := columnsOf(t, tree.Random(d, rng, tree.RandomConfig{Nodes: 300, MaxFanout: 5, Labels: 5}))
	seq, par := &countingProbe{}, &atomicProbe{}
	if _, err := rangesTopK([]*tree.Tree{q}, cols, 2, 0, Options{Probe: seq}); err != nil {
		t.Fatal(err)
	}
	if _, err := rangesTopK([]*tree.Tree{q}, cols, 2, 4, Options{Probe: par}); err != nil {
		t.Fatal(err)
	}
	if n := par.candidates.Load(); n != int64(len(seq.candidates)) || par.relevant.Load() == 0 {
		t.Errorf("probe: %d candidates (sequential %d), %d relevant", n, len(seq.candidates), par.relevant.Load())
	}
}

// TestParallelCancelled: a context cancelled before or during a split scan
// makes it return ctx.Err() itself, the ranges stop within a candidate
// each, and no goroutine outlives the call.
func TestParallelCancelled(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{rec{a}{b}}")
	cols, err := postorder.BuildColumns(postorder.NewSliceQueue(recordDoc(t, d, 5000)), 0)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	before := runtime.NumGoroutine()
	for _, cancelAt := range []int64{0, 100} {
		ctx, cancel := context.WithCancel(context.Background())
		p := &atomicProbe{cancelAt: cancelAt, cancel: cancel}
		if cancelAt == 0 {
			cancel()
		}
		_, err := rangesTopK([]*tree.Tree{q}, cols, 2, workers, Options{Ctx: ctx, Probe: p, CT: 1})
		if err != ctx.Err() || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d candidates: err = %v, want ctx.Err()", cancelAt, err)
		}
		if n := p.candidates.Load(); n > cancelAt+workers {
			t.Errorf("cancel after %d candidates: %d candidates scanned, want at most one more per range", cancelAt, n)
		}
	}
	// The goroutines of a returned scan have finished; give them a moment
	// to leave the scheduler's count.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the cancelled scans, %d before", n, before)
	}
}

// TestRangesSkipGatedRuns: without a probe, a scan steps over the runs of
// candidates the histogram gate rejects (prb.Cursor.Skip), and the ranges
// of a split scan do so concurrently over the one bounds row they share.
// The sequential scan counts exactly what the ring-buffer scan, which
// visits every candidate, counts; every split answers as it does.
func TestRangesSkipGatedRuns(t *testing.T) {
	d := dict.New()
	root := tree.NewNode("root")
	for i := 0; i < 400; i++ {
		if i%7 == 0 {
			root.AddChild(tree.NewNode("rec", tree.NewNode("a"), tree.NewNode("b")))
		} else {
			root.AddChild(tree.NewNode("x", tree.NewNode("y"), tree.NewNode("z")))
		}
	}
	doc := tree.FromNode(d, root)
	cols := columnsOf(t, doc)
	queries := []*tree.Tree{
		tree.MustParse(d, "{rec{a}{b}}"),
		tree.MustParse(d, "{rec{b}}"),
		tree.MustParse(d, "{rec{a}{a}{c}}"),
	}
	const k = 3
	for _, n := range []int{1, 3} {
		batch := queries[:n]
		var seqStats, ringStats PruneStats
		seq, err := rangesTopK(batch, cols, k, 0, Options{Prune: &seqStats})
		if err != nil {
			t.Fatal(err)
		}
		ring := make([]*ranking.Heap, n)
		for i := range ring {
			ring[i] = ranking.New(k)
		}
		if err := streamScan(batch, postorder.FromTree(doc), ring, 0, true, Options{Prune: &ringStats}); err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			mustEqualTrees(t, fmt.Sprintf("batch of %d, query %d: columns vs ring", n, i), seq[i], ring[i].Sorted())
		}
		s, r := [3]uint64{}, [3]uint64{}
		s[0], s[1], s[2] = seqStats.Snapshot()
		r[0], r[1], r[2] = ringStats.Snapshot()
		if s != r || s[0] == 0 {
			t.Fatalf("batch of %d: (histSkipped, tedAborted, evaluated) columns %v, ring %v; the gate must fire", n, s, r)
		}
		for _, workers := range []int{2, 4, 8} {
			var stats PruneStats
			par, err := rangesTopK(batch, cols, k, workers, Options{Prune: &stats})
			if err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				mustEqualTrees(t, fmt.Sprintf("batch of %d, %d ranges, query %d", n, workers, i), par[i], seq[i])
			}
			if stats.HistSkipped.Load() == 0 {
				t.Errorf("batch of %d, %d ranges: the gate never fired", n, workers)
			}
		}
	}
}
