package main

// The traced run's in-process half. After the daemons have stopped, the
// same directories are opened in this process and a sample of pool
// queries is pushed through the layers' exported functions one prefix at
// a time — store drain; + ring buffer; + histogram gate; a replica of the
// scan loop with a timer around every view fill, distance computation
// and heap push; the real core scan; the real corpus.TopK — so that the
// rows of the layer table sum to the whole and the largest is named.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"path/filepath"
	"strings"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/core"
	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/docstore"
	"tasm/internal/mmapio"
	"tasm/internal/pqgram"
	"tasm/internal/prb"
	"tasm/internal/qtrace"
	"tasm/internal/ranking"
	"tasm/internal/ted"
	"tasm/internal/tree"
	"tasm/internal/xmlstream"
)

const (
	// layerN is how many pool queries the layer pass decomposes.
	layerN = 24
	// layerReps is how often each timed stage runs per query; the fastest
	// repetition is kept, which is the one least disturbed by the machine.
	layerReps = 3
	// microDocs bounds the documents the parse and profile unit costs are
	// taken over.
	microDocs = 50
)

// image is one document's store, mapped and parsed the way the corpus
// holds it.
type image struct {
	region *mmapio.Region
	img    *docstore.Image
	nodes  int
}

// loadImages maps every store of a corpus directory, keyed by document
// name.
func loadImages(dir string) (map[string]*image, error) {
	man, err := docstore.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]*image, len(man.Docs))
	for _, d := range man.Docs {
		region, err := mmapio.Map(filepath.Join(dir, d.Store))
		if err != nil {
			return nil, err
		}
		img, err := docstore.ParseImage(region.Bytes())
		if err != nil {
			region.Close()
			return nil, err
		}
		out[d.Name] = &image{region: region, img: img, nodes: d.Nodes}
	}
	return out, nil
}

// fastest runs fn layerReps times and returns the shortest duration.
func fastest(fn func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < layerReps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// stages is one query's decomposition, in milliseconds, plus the counts
// behind the unit costs.
type stages struct {
	parse, plan, drain, ring, hist, fill, ted, heap, merge, scan, topk float64
	nodes, candidates, evals, pushes                                   int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// scanDocs is the scan plan of one query as the traced TopK reported it:
// the documents it scanned, in order, with their remaps into the query's
// dictionary.
type scanDocs struct {
	imgs   []*image
	remaps [][]int
}

// replica mirrors core's sequential scan loop (PostorderStreamInto) over
// the exported ring-buffer, histogram, view, distance and heap functions,
// with a timer around each of the last three. It exists to attribute
// time; its evaluation count is compared against the real scan's.
func replica(q *tree.Tree, k, tau int, plan *scanDocs, s *stages) error {
	comp := ted.NewComputer(cost.Unit{}, q)
	hist := prb.NewLabelHist(q)
	heap := ranking.New(k)
	view := &tree.View{}
	var (
		ir                 docstore.ImageReader
		buf                *prb.Buffer
		fill, dist, pushes time.Duration
		offset             int
	)
	s.evals, s.pushes = 0, 0
	m := float64(q.Size())
	for di, im := range plan.imgs {
		ir.Reset(im.img, plan.remaps[di])
		if buf == nil {
			buf = prb.New(&ir, tau)
		} else {
			buf.Reset(&ir, tau)
		}
		for {
			ok, err := buf.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			rootID, leafID := buf.Root(), buf.Leaf()
			kth := heap.KthBound()
			if !math.IsInf(kth, 1) && float64(hist.CandidateBound(buf, leafID, rootID)) > kth {
				continue
			}
			for rt := rootID; rt >= leafID; {
				lml := buf.LMLOf(rt)
				size := rt - lml + 1
				kth = heap.KthBound()
				if !math.IsInf(kth, 1) && float64(size) > kth+m {
					rt--
					continue
				}
				t0 := time.Now()
				if err := buf.FillView(q.Dict(), view, lml, rt); err != nil {
					return err
				}
				t1 := time.Now()
				var row []float64
				if math.IsInf(kth, 1) {
					row = comp.SubtreeDistancesView(view)
				} else {
					row, _ = comp.SubtreeDistancesViewBounded(view, kth)
				}
				t2 := time.Now()
				sizes := view.Sizes()
				for j := 0; j < size; j++ {
					heap.Push(ranking.Entry{Dist: row[j], Pos: offset + lml + j, Size: sizes[j]})
				}
				t3 := time.Now()
				fill += t1.Sub(t0)
				dist += t2.Sub(t1)
				pushes += t3.Sub(t2)
				s.evals++
				s.pushes += size
				rt = lml - 1
			}
		}
		offset += im.nodes
	}
	s.fill, s.ted, s.heap = ms(fill), ms(dist), ms(pushes)
	return nil
}

// errSpansDropped reports a query whose trace overflowed qtrace's span
// slab: the list of documents it scanned is incomplete, so it cannot be
// decomposed.
var errSpansDropped = errors.New("bench: trace dropped spans")

// decompose measures one query's stages on corpus c.
func decompose(c *corpus.Corpus, images map[string]*image, query string, k int, tr *tracer, req int) (*stages, error) {
	s := &stages{}
	ctx := context.Background()
	var q *tree.Tree
	d, err := fastest(func() (err error) { q, err = c.ParseBracket(query); return })
	if err != nil {
		return nil, err
	}
	s.parse = ms(d)
	tau := core.Tau(cost.Unit{}, q, k, 0)

	// The real TopK, untraced for its time and traced for its plan and
	// merge spans and for the documents it chose to scan.
	var stats corpus.Stats
	d, err = fastest(func() error {
		_, err := c.TopK(ctx, q, k, corpus.WithoutTrees(), corpus.WithStats(&stats))
		return err
	})
	if err != nil {
		return nil, err
	}
	s.topk = s.parse + ms(d)
	qt := qtrace.New()
	defer qtrace.Release(qt)
	var terr error
	tr.timed(0, req, "corpus.TopK", query, func() {
		_, terr = c.TopK(qtrace.NewContext(ctx, qt), q, k, corpus.WithoutTrees())
	})
	if terr != nil {
		return nil, terr
	}
	wire := qt.Export()
	if wire.Dropped > 0 {
		return nil, errSpansDropped
	}
	plan := &scanDocs{}
	for _, sp := range wire.Spans {
		switch sp.Name {
		case qtrace.SpanPlan:
			s.plan = sp.DurUs / 1000
		case qtrace.SpanMerge:
			s.merge = sp.DurUs / 1000
		case qtrace.SpanScan:
			im := images[sp.Detail]
			if im == nil {
				return nil, fmt.Errorf("bench: traced scan of unknown document %q", sp.Detail)
			}
			plan.imgs = append(plan.imgs, im)
			plan.remaps = append(plan.remaps, im.img.Remap(q.Dict()))
			s.nodes += im.nodes
		}
	}

	// Cumulative prefixes of the scan: drain; + ring buffer; + histogram
	// gate on every candidate.
	var ir docstore.ImageReader
	drain := func() error {
		for di, im := range plan.imgs {
			ir.Reset(im.img, plan.remaps[di])
			for {
				if _, err := ir.Next(); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
		}
		return nil
	}
	var buf *prb.Buffer
	hist := prb.NewLabelHist(q)
	ring := func(gate bool) func() error {
		return func() error {
			s.candidates = 0
			for di, im := range plan.imgs {
				ir.Reset(im.img, plan.remaps[di])
				if buf == nil {
					buf = prb.New(&ir, tau)
				} else {
					buf.Reset(&ir, tau)
				}
				for {
					ok, err := buf.Next()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					s.candidates++
					if gate {
						hist.CandidateBound(buf, buf.Leaf(), buf.Root())
					}
				}
			}
			return nil
		}
	}
	var tDrain, tRing, tHist time.Duration
	tr.timed(0, req, "docstore.drain", "", func() { tDrain, err = fastest(drain) })
	if err != nil {
		return nil, err
	}
	tr.timed(0, req, "prb.ring", "", func() { tRing, err = fastest(ring(false)) })
	if err != nil {
		return nil, err
	}
	tr.timed(0, req, "prb.ring+hist", "", func() { tHist, err = fastest(ring(true)) })
	if err != nil {
		return nil, err
	}
	s.drain = ms(tDrain)
	s.ring = max(ms(tRing-tDrain), 0)
	s.hist = max(ms(tHist-tRing), 0)

	// The replica attributes the rest; its fastest repetition by total is
	// kept whole so fill, distance and heap times belong to one run.
	best := &stages{fill: math.Inf(1)}
	tr.timed(0, req, "replica scan", "", func() {
		for i := 0; i < layerReps && err == nil; i++ {
			var r stages
			if err = replica(q, k, tau, plan, &r); err == nil && r.fill+r.ted+r.heap < best.fill+best.ted+best.heap {
				*best = r
			}
		}
	})
	if err != nil {
		return nil, err
	}
	s.fill, s.ted, s.heap, s.evals, s.pushes = best.fill, best.ted, best.heap, best.evals, best.pushes
	if got := int(stats.Evaluated + stats.TEDAborted); got != s.evals {
		return nil, fmt.Errorf("bench: the replica scan evaluated %d subtrees, corpus.TopK %d: it no longer mirrors core's scan loop", s.evals, got)
	}

	// The real core scan over the same documents.
	scratch := &core.ScanScratch{}
	var tScan time.Duration
	tr.timed(0, req, "core.PostorderStreamInto", "", func() {
		tScan, err = fastest(func() error {
			heap := ranking.New(k)
			scratch.Reset()
			offset := 0
			for di, im := range plan.imgs {
				ir.Reset(im.img, plan.remaps[di])
				if err := core.PostorderStreamInto(q, &ir, heap, offset, core.Options{NoTrees: true, Scratch: scratch}); err != nil {
					return err
				}
				offset += im.nodes
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	s.scan = ms(tScan)
	return s, nil
}

// row is one line of the layer table.
type row struct {
	name string
	ms   float64
}

// column extracts one field of every stage set and returns its median.
func column(all []*stages, f func(*stages) float64) float64 {
	v := make([]float64, len(all))
	for i, s := range all {
		v[i] = f(s)
	}
	return medianOf(v)
}

// layerPass runs the in-process pass and fills the in-process per-layer
// metrics and the layer table.
func layerPass(dirs []string, w *workload, docs []fixtureDoc, pool []request, latP50Ms float64, tr *tracer, res *result) error {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	ctx := context.Background()
	req := tr.newRequest()

	var corpora []*corpus.Corpus
	var openMs float64
	for i, dir := range dirs {
		var c *corpus.Corpus
		var err error
		d := tr.timed(0, req, "corpus.Open", dir, func() { c, err = corpus.Open(dir, corpus.WithLogger(quiet)) })
		if err != nil {
			return err
		}
		if i == 0 {
			openMs = ms(d)
		}
		corpora = append(corpora, c)
	}
	c := corpora[0]
	res.set(perLayer, "corpus.open_ms", openMs)
	res.set(perLayer, "mmapio.mapped_mb", float64(c.MappedBytes())/1e6)
	images, err := loadImages(dirs[0])
	if err != nil {
		return err
	}
	defer func() {
		for _, im := range images {
			im.region.Close()
		}
	}()

	// Decompose the first query of the first layerN pool entries whose
	// traces are whole.
	var all []*stages
	for i := 0; i < len(pool) && len(all) < layerN; i++ {
		s, err := decompose(c, images, pool[i].queries[0], w.k, tr, req)
		if errors.Is(err, errSpansDropped) {
			continue
		}
		if err != nil {
			return err
		}
		all = append(all, s)
	}
	if len(all) == 0 {
		return errors.New("bench: every sampled query's trace dropped spans")
	}
	sum := func(f func(*stages) float64) float64 {
		t := 0.0
		for _, s := range all {
			t += f(s)
		}
		return t
	}
	count := func(f func(*stages) int) float64 {
		return sum(func(s *stages) float64 { return float64(f(s)) })
	}
	nodes, cands := count(func(s *stages) int { return s.nodes }), count(func(s *stages) int { return s.candidates })
	evals, pushes := count(func(s *stages) int { return s.evals }), count(func(s *stages) int { return s.pushes })
	per := func(totalMs, n, unit float64) float64 {
		if n == 0 {
			return 0
		}
		return totalMs * unit / n
	}
	res.set(perLayer, "core.candidates_per_q", cands/float64(len(all)))
	res.set(perLayer, "docstore.drain_ns_per_node", per(sum(func(s *stages) float64 { return s.drain }), nodes, 1e6))
	res.set(perLayer, "prb.next_ns_per_node", per(sum(func(s *stages) float64 { return s.ring }), nodes, 1e6))
	res.set(perLayer, "prb.hist_bound_ns", per(sum(func(s *stages) float64 { return s.hist }), cands, 1e6))
	res.set(perLayer, "tree.view_fill_ns", per(sum(func(s *stages) float64 { return s.fill }), evals, 1e6))
	res.set(perLayer, "ted.bounded_us", per(sum(func(s *stages) float64 { return s.ted }), evals, 1e3))
	res.set(perLayer, "ranking.push_ns", per(sum(func(s *stages) float64 { return s.heap }), pushes, 1e6))

	med := func(f func(*stages) float64) float64 { return column(all, f) }
	drain, ring, hist := med(func(s *stages) float64 { return s.drain }), med(func(s *stages) float64 { return s.ring }), med(func(s *stages) float64 { return s.hist })
	fill, dist, heap := med(func(s *stages) float64 { return s.fill }), med(func(s *stages) float64 { return s.ted }), med(func(s *stages) float64 { return s.heap })
	scan := med(func(s *stages) float64 { return s.scan })
	topk := med(func(s *stages) float64 { return s.topk })
	other := scan - (drain + ring + hist + fill + dist + heap)
	rows := []row{
		{"tree parse", med(func(s *stages) float64 { return s.parse })},
		{"corpus plan", med(func(s *stages) float64 { return s.plan })},
		{"docstore drain", drain},
		{"prb ring buffer", ring},
		{"prb histogram gate", hist},
		{"tree view fill", fill},
		{"ted Zhang-Shasha", dist},
		{"ranking heap", heap},
		{"corpus merge", med(func(s *stages) float64 { return s.merge })},
		{"core scan, other", other},
	}
	res.set(perLayer, "core.scan_ms_per_q", scan)
	res.set(perLayer, "core.scan_floor_frac", (drain+ring+hist)/scan)
	res.set(perLayer, "core.scan_other_ms", other)
	res.set(perLayer, "corpus.topk_ms", topk)
	res.samples["corpus.topk_ms"] = len(all)

	// Batch against the same queries one at a time.
	batchMs, amort, err := batchCost(ctx, c, w, pool)
	if err != nil {
		return err
	}
	res.set(perLayer, "corpus.topk_batch_ms", batchMs)
	res.set(perLayer, "corpus.batch_amortisation", amort)

	group, err := groupOverhead(ctx, corpora, w, pool)
	if err != nil {
		return err
	}
	res.set(perLayer, "shard.group_overhead_us", group)

	if err := unitCosts(c, docs, pool, res); err != nil {
		return err
	}

	// The layer table.
	total, largest := 0.0, 0
	for i, r := range rows {
		total += r.ms
		if r.ms > rows[largest].ms {
			largest = i
		}
	}
	t := []string{fmt.Sprintf("  layer table (%s, median of %d queries, in process on %s):", w.name, len(all), filepath.Base(dirs[0]))}
	for _, r := range rows {
		t = append(t, fmt.Sprintf("    %-22s %9.4f ms %6.1f %%", r.name, r.ms, 100*r.ms/topk))
	}
	residual := (topk - total) / topk
	t = append(t, fmt.Sprintf("    %-22s %9.4f ms %6.1f %%  (corpus.topk_ms %.4f ms)", "sum of rows", total, 100*total/topk, topk))
	flag := ""
	if math.Abs(residual) > 0.15 {
		flag = "  RESIDUAL ABOVE 15 %"
	}
	t = append(t, fmt.Sprintf("    residual %.1f %% of corpus.topk_ms; largest row: %s%s", 100*residual, rows[largest].name, flag))
	whole, wholeName := topk, "corpus.topk_ms"
	if w.batch > 1 {
		whole, wholeName = batchMs, "corpus.topk_batch_ms"
	}
	gap := res.Metrics["tasmd.untraced_gap_us"].Value / 1000
	if len(dirs) == 1 {
		t = append(t, fmt.Sprintf("    %s %.4f + tasmd.untraced_gap %.4f = %.4f ms against serial lat_p50_ms %.4f (%+.1f %%)",
			wholeName, whole, gap, whole+gap, latP50Ms, 100*(whole+gap-latP50Ms)/latP50Ms))
	} else {
		t = append(t, "    (router: the table decomposes leaf 0's share; the miss path adds shard.* and the router's own gap)")
	}
	res.table = t
	return nil
}

// batchCost times corpus.TopKBatch over groups of w.batch (or 4) queries
// and the same queries one at a time; it returns the median batch time
// and Σ batch ÷ Σ singles.
func batchCost(ctx context.Context, c *corpus.Corpus, w *workload, pool []request) (batchMs, amortisation float64, err error) {
	size := max(w.batch, 4)
	var batches []float64
	var sumBatch, sumSingle time.Duration
	for g := 0; g < 8; g++ {
		var texts []string
		if w.batch > 1 {
			if g >= len(pool) {
				break
			}
			texts = pool[g].queries
		} else {
			if (g+1)*size > len(pool) {
				break
			}
			for _, r := range pool[g*size : (g+1)*size] {
				texts = append(texts, r.queries[0])
			}
		}
		qs := make([]*tree.Tree, len(texts))
		for i, s := range texts {
			if qs[i], err = c.ParseBracket(s); err != nil {
				return 0, 0, err
			}
		}
		d, err := fastest(func() error {
			_, err := c.TopKBatch(ctx, qs, w.k, corpus.WithoutTrees())
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		batches = append(batches, ms(d))
		sumBatch += d
		for _, q := range qs {
			d, err := fastest(func() error {
				_, err := c.TopK(ctx, q, w.k, corpus.WithoutTrees())
				return err
			})
			if err != nil {
				return 0, 0, err
			}
			sumSingle += d
		}
	}
	if len(batches) == 0 {
		return 0, 0, nil
	}
	return medianOf(batches), float64(sumBatch) / float64(sumSingle), nil
}

// groupOverhead is what shard.Group adds over its slowest member: the
// median over the sample of (Group.TopK − max member TopK).
func groupOverhead(ctx context.Context, corpora []*corpus.Corpus, w *workload, pool []request) (float64, error) {
	members := make([]corpus.Searcher, len(corpora))
	for i, c := range corpora {
		members[i] = c
	}
	g := shard.NewGroup(members...)
	var over []float64
	for i := 0; i < min(layerN, len(pool)); i++ {
		q, err := corpora[0].ParseBracket(pool[i].queries[0])
		if err != nil {
			return 0, err
		}
		topk := func(s corpus.Searcher) (time.Duration, error) {
			return fastest(func() error {
				_, err := s.TopK(ctx, q, w.k, corpus.WithoutTrees())
				return err
			})
		}
		whole, err := topk(g)
		if err != nil {
			return 0, err
		}
		var slowest time.Duration
		for _, c := range corpora {
			d, err := topk(c)
			if err != nil {
				return 0, err
			}
			slowest = max(slowest, d)
		}
		over = append(over, float64(whole-slowest)/float64(time.Microsecond))
	}
	return medianOf(over), nil
}

// unitCosts measures the layers a query does not cross but set-up does:
// XML parsing, pq-gram profiling, and the plan's profile distance.
func unitCosts(c *corpus.Corpus, docs []fixtureDoc, pool []request, res *result) error {
	docs = docs[:min(len(docs), microDocs)]
	bytes := 0
	for _, d := range docs {
		bytes += len(d.xml)
	}
	d, err := fastest(func() error {
		for _, doc := range docs {
			if _, err := xmlstream.ParseTree(dict.New(), strings.NewReader(doc.xml)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set(perLayer, "xmlstream.parse_mb_s", float64(bytes)/1e6/d.Seconds())

	const p, q = 2, 3 // corpus.Open's default pq-gram shape
	profiles := make([]*pqgram.Profile, len(docs))
	d, err = fastest(func() (err error) {
		for i, doc := range docs {
			if profiles[i], err = pqgram.New(doc.tree, p, q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set(perLayer, "pqgram.profile_ms_per_doc", ms(d)/float64(len(docs)))

	// The plan pays one query-to-document profile distance per document
	// per query. Label ids of the fixture trees and the query differ, which
	// changes the distances but not what computing one costs.
	qt, err := c.ParseBracket(pool[0].queries[0])
	if err != nil {
		return err
	}
	qp, err := pqgram.New(qt, p, q)
	if err != nil {
		return err
	}
	const rounds = 200
	d, err = fastest(func() error {
		for r := 0; r < rounds; r++ {
			for _, dp := range profiles {
				if _, err := pqgram.Distance(qp, dp); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set(perLayer, "pqgram.distance_ns", float64(d)/float64(rounds*len(profiles)))
	return nil
}
