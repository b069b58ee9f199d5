package tasm

// Benchmarks regenerating the measurements behind every figure of the
// paper's evaluation (Section VII), one benchmark family per figure, plus
// micro-benchmarks of the core machinery. The figure benchmarks use
// moderate document scales so `go test -bench=.` completes in minutes;
// cmd/tasmbench runs the full sweeps and prints the paper-style tables.
//
//	BenchmarkFig9a*  runtime vs document size   (dyn vs pos)
//	BenchmarkFig9b*  runtime vs query size      (dyn vs pos)
//	BenchmarkFig9c*  runtime vs k               (dyn vs pos)
//	BenchmarkFig10*  allocations vs doc size    (B/op column ≙ memory)
//	BenchmarkFig11*  instrumented pruning profile (PSD/DBLP shapes)
//	BenchmarkFig12*  cumulative-size bookkeeping

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tasm/internal/core"
	"tasm/internal/cost"
	"tasm/internal/datagen"
	"tasm/internal/dict"
	"tasm/internal/experiments"
	"tasm/internal/postorder"
	"tasm/internal/pqgram"
	"tasm/internal/prb"
	"tasm/internal/ranking"
	"tasm/internal/ted"
	"tasm/internal/tree"
	"tasm/internal/xmlstream"
)

// fixture caches one generated document per (dataset, scale) across
// benchmarks in a run.
type fixture struct {
	doc   *tree.Tree
	dict  dict.Dict
	items []postorder.Item
}

var (
	fixMu  sync.Mutex
	fixMap = map[string]*fixture{}
)

func xmarkFixture(b *testing.B, scale int) *fixture {
	b.Helper()
	return getFixture(b, fmt.Sprintf("xmark%d", scale), func(d dict.Dict) *datagen.Dataset { return datagen.XMark(scale) })
}

func dblpFixture(b *testing.B, records int) *fixture {
	b.Helper()
	return getFixture(b, fmt.Sprintf("dblp%d", records), func(d dict.Dict) *datagen.Dataset { return datagen.DBLP(records) })
}

func psdFixture(b *testing.B, entries int) *fixture {
	b.Helper()
	return getFixture(b, fmt.Sprintf("psd%d", entries), func(d dict.Dict) *datagen.Dataset { return datagen.PSD(entries) })
}

func getFixture(b *testing.B, key string, mk func(dict.Dict) *datagen.Dataset) *fixture {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixMap[key]; ok {
		return f
	}
	d := dict.New()
	doc, err := mk(d).Tree(d, 1)
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{doc: doc, dict: d, items: postorder.Items(doc)}
	fixMap[key] = f
	return f
}

// query picks a deterministic |Q|-node query from the fixture document.
func (f *fixture) query(b *testing.B, size int) *tree.Tree {
	b.Helper()
	q, err := datagen.QueryFromDocument(f.doc, rand.New(rand.NewSource(int64(size))), size)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func benchDyn(b *testing.B, f *fixture, qsize, k int) {
	q := f.query(b, qsize)
	opts := core.Options{NoTrees: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Dynamic(q, f.doc, k, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPos(b *testing.B, f *fixture, qsize, k int) {
	q := f.query(b, qsize)
	opts := core.Options{NoTrees: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queue := postorder.NewSliceQueue(f.items)
		if _, err := core.PostorderStream(q, queue, k, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 9a: runtime vs document size (k=5) ---

func BenchmarkFig9a(b *testing.B) {
	for _, scale := range []int{1, 2, 4, 8} {
		for _, qsize := range []int{4, 8, 64} {
			f := xmarkFixture(b, scale)
			b.Run(fmt.Sprintf("scale=%d/Q=%d/dyn", scale, qsize), func(b *testing.B) { benchDyn(b, f, qsize, 5) })
			b.Run(fmt.Sprintf("scale=%d/Q=%d/pos", scale, qsize), func(b *testing.B) { benchPos(b, f, qsize, 5) })
		}
	}
}

// --- Figure 9b: runtime vs query size (k=5) ---

func BenchmarkFig9b(b *testing.B) {
	for _, qsize := range []int{4, 8, 16, 32, 64} {
		for _, scale := range []int{1, 4} {
			f := xmarkFixture(b, scale)
			b.Run(fmt.Sprintf("Q=%d/scale=%d/dyn", qsize, scale), func(b *testing.B) { benchDyn(b, f, qsize, 5) })
			b.Run(fmt.Sprintf("Q=%d/scale=%d/pos", qsize, scale), func(b *testing.B) { benchPos(b, f, qsize, 5) })
		}
	}
}

// --- Figure 9c: runtime vs k (|Q|=16) ---

func BenchmarkFig9c(b *testing.B) {
	for _, k := range []int{1, 10, 100, 1000, 10000} {
		f := xmarkFixture(b, 2)
		b.Run(fmt.Sprintf("k=%d/dyn", k), func(b *testing.B) { benchDyn(b, f, 16, k) })
		b.Run(fmt.Sprintf("k=%d/pos", k), func(b *testing.B) { benchPos(b, f, 16, k) })
	}
}

// --- Figure 10: memory vs document size (read the B/op column) ---

func BenchmarkFig10(b *testing.B) {
	for _, scale := range []int{1, 2, 4, 8} {
		for _, qsize := range []int{4, 16} {
			f := xmarkFixture(b, scale)
			// B/op for dyn is dominated by the O(m·n) matrices, growing
			// with the document. B/op for pos counts cumulative candidate
			// churn (reclaimed as it goes); its *peak* footprint is flat —
			// cmd/tasmbench -fig 10 measures that directly.
			b.Run(fmt.Sprintf("scale=%d/Q=%d/dyn", scale, qsize), func(b *testing.B) {
				q := f.query(b, qsize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					comp := ted.NewComputer(cost.Unit{}, q)
					if got := comp.Distance(f.doc); got < 0 {
						b.Fatal("negative distance")
					}
				}
			})
			b.Run(fmt.Sprintf("scale=%d/Q=%d/pos", scale, qsize), func(b *testing.B) { benchPos(b, f, qsize, 5) })
		}
	}
}

// --- Figure 11: TED-computation profiles on PSD- and DBLP-shaped data ---

type benchProbe struct {
	relevant, candidates, pruned int
	maxRelevant                  int
}

func (p *benchProbe) RelevantSubtree(size int) {
	p.relevant++
	if size > p.maxRelevant {
		p.maxRelevant = size
	}
}
func (p *benchProbe) Candidate(size int) { p.candidates++ }
func (p *benchProbe) Pruned(size int)    { p.pruned++ }

func BenchmarkFig11(b *testing.B) {
	run := func(b *testing.B, f *fixture, algo string) {
		q := f.query(b, 4)
		b.ReportAllocs()
		b.ResetTimer()
		var probe benchProbe
		for i := 0; i < b.N; i++ {
			probe = benchProbe{}
			opts := core.Options{NoTrees: true, Probe: &probe}
			var err error
			if algo == "dyn" {
				_, err = core.Dynamic(q, f.doc, 1, opts)
			} else {
				_, err = core.PostorderStream(q, postorder.NewSliceQueue(f.items), 1, opts)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(probe.relevant), "relevant-subtrees")
		b.ReportMetric(float64(probe.maxRelevant), "max-relevant-size")
	}
	psd := psdFixture(b, 1500)
	dblp := dblpFixture(b, 10000)
	b.Run("psd/dyn", func(b *testing.B) { run(b, psd, "dyn") })
	b.Run("psd/pos", func(b *testing.B) { run(b, psd, "pos") })
	b.Run("dblp/dyn", func(b *testing.B) { run(b, dblp, "dyn") })
	b.Run("dblp/pos", func(b *testing.B) { run(b, dblp, "pos") })
}

// --- Figure 12: cumulative subtree size difference ---

func BenchmarkFig12(b *testing.B) {
	cfg := experiments.Quick()
	b.ReportAllocs()
	b.ResetTimer()
	var lastDiff float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig12(discard{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		lastDiff = float64(pts[len(pts)-1].Diff)
	}
	b.ReportMetric(lastDiff, "final-css-diff")
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// --- Ablation: how much does the τ′ intermediate bound buy? ---

func BenchmarkAblationTauPrime(b *testing.B) {
	f := xmarkFixture(b, 2)
	q := f.query(b, 16)
	for _, disable := range []bool{false, true} {
		name := "with-tau-prime"
		if disable {
			name = "without-tau-prime"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.Options{NoTrees: true, DisableIntermediateBound: disable}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.PostorderStream(q, postorder.NewSliceQueue(f.items), 1, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatch compares one batched scan of 8 queries against 8
// individual scans over an XML source: the batch amortizes the repeated
// document parsing and pruning passes (over an already-decoded in-memory
// queue the two are nearly equal — the savings are the per-pass costs).
func BenchmarkBatch(b *testing.B) {
	f := xmarkFixture(b, 2)
	var sb strings.Builder
	if err := xmlstream.WriteTree(&sb, f.doc); err != nil {
		b.Fatal(err)
	}
	xml := sb.String()
	queries := make([]*tree.Tree, 8)
	for i := range queries {
		queries[i] = f.query(b, 8+i)
	}
	opts := core.Options{NoTrees: true}
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			queue := xmlstream.NewReader(f.dict, strings.NewReader(xml))
			if _, err := core.PostorderBatch(queries, queue, 5, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("individual", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				queue := xmlstream.NewReader(f.dict, strings.NewReader(xml))
				if _, err := core.PostorderStream(q, queue, 5, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- Micro-benchmarks of the building blocks ---

func BenchmarkTEDDistance(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := dict.New()
			rng := rand.New(rand.NewSource(1))
			q := tree.Random(d, rng, tree.RandomConfig{Nodes: 16, MaxFanout: 4, Labels: 8})
			t := tree.Random(d, rng, tree.RandomConfig{Nodes: n, MaxFanout: 4, Labels: 8})
			comp := ted.NewComputer(cost.Unit{}, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				comp.Distance(t)
			}
		})
	}
}

func BenchmarkRingBufferScan(b *testing.B) {
	f := dblpFixture(b, 20000)
	b.ReportAllocs()
	b.SetBytes(int64(len(f.items)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := prb.New(postorder.NewSliceQueue(f.items), 50)
		n := 0
		for {
			ok, err := buf.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if n == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkApproxVsExact contrasts the pq-gram approximation ([21], the
// related-work filter family of Section III) with the exact Zhang–Shasha
// distance on equal-sized tree pairs: the approximation is one to two
// orders of magnitude faster per pair but offers no ranking guarantee.
func BenchmarkApproxVsExact(b *testing.B) {
	d := dict.New()
	rng := rand.New(rand.NewSource(9))
	a := tree.Random(d, rng, tree.RandomConfig{Nodes: 64, MaxFanout: 4, Labels: 10})
	c := tree.Random(d, rng, tree.RandomConfig{Nodes: 64, MaxFanout: 4, Labels: 10})
	b.Run("pqgram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pa, err := pqgram.New(a, 2, 3)
			if err != nil {
				b.Fatal(err)
			}
			pc, err := pqgram.New(c, 2, 3)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pqgram.Distance(pa, pc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("zhangshasha", func(b *testing.B) {
		comp := ted.NewComputer(cost.Unit{}, a)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			comp.Distance(c)
		}
	})
}

func BenchmarkRankingHeap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dists := make([]float64, 1<<16)
	for i := range dists {
		dists[i] = float64(rng.Intn(1000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := ranking.New(20)
		for j, d := range dists {
			h.Push(ranking.Entry{Dist: d, Pos: j + 1})
		}
	}
}

func BenchmarkXMLStreamParse(b *testing.B) {
	// Serialize a 2000-record bibliography once, then measure streaming
	// parse throughput (bytes of XML per second).
	f := dblpFixture(b, 2000)
	var sb strings.Builder
	if err := xmlstream.WriteTree(&sb, f.doc); err != nil {
		b.Fatal(err)
	}
	data := sb.String()
	m := New()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := m.XMLQueue(strings.NewReader(data))
		for {
			if _, err := q.Next(); err != nil {
				break
			}
		}
	}
}
