package corpus

import (
	"context"
	"fmt"
	"math"
	"sort"

	"tasm/internal/core"
	"tasm/internal/dict"
	"tasm/internal/docstore"
	"tasm/internal/pqgram"
	"tasm/internal/qtrace"
	"tasm/internal/ranking"
	"tasm/internal/tree"
)

// batchDoc is one document of a TopKBatch scan plan: the shared scanDoc
// ordering data plus the per-query lower bounds that drive the skip
// decision.
type batchDoc struct {
	scanDoc
	bounds []float64 // per query: sound lower bound on any subtree distance
}

// TopKBatch answers several queries across the corpus in one pass: the
// candidate subtrees of every selected document are enumerated once, and
// all queries rank them during that single scan
// (core.PostorderBatchColumnsInto). Result i corresponds to
// queries[i] and is byte-identical to c.TopK(queries[i], k).
//
// The whole batch shares one request overlay over the frozen corpus
// dictionary, so serving a batch interns each distinct query label once
// and releases them all with the batch.
//
// A document is skipped only when it is prunable for every query — each
// query keeps its own sound label lower bound per document and its own
// running k-th distance. Scan order is ascending minimum pq-gram distance
// over the queries, so documents promising for any query are scanned
// early. The WithWorkers option is ignored: the batch scan itself is the
// parallelism (one document read serves all queries).
//
// The context carries cancellation and deadline exactly as for TopK; a
// nil ctx is treated as context.Background().
func (c *Corpus) TopKBatch(ctx context.Context, queries []*tree.Tree, k int, opts ...QueryOption) ([][]Match, error) {
	cfg := ResolveQueryOptions(opts...)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ValidateBatch(queries, k, &cfg); err != nil {
		return nil, err
	}

	st := c.snapshot()
	ov := dict.NewOverlay(st.base)
	qs := make([]*tree.Tree, len(queries))
	for i, q := range queries {
		qs[i] = q.Reintern(ov)
	}

	// Stage spans mirror TopK's: plan, one span per scanned document
	// (shared by the whole batch — the scan reads each document once for
	// all queries), and the merge. See TopK for the granularity contract.
	tr := qtrace.FromContext(ctx)
	planSpan := tr.Begin(qtrace.SpanPlan, "")
	planBuf := c.batchPool.Get().(*[]batchDoc)
	plan, err := c.planBatch(st, qs, &cfg, (*planBuf)[:0])
	tr.End(planSpan)
	defer func() {
		*planBuf = plan[:0]
		c.batchPool.Put(planBuf)
	}()
	if err != nil {
		return nil, err
	}

	heaps := make([]*ranking.Heap, len(qs))
	for i := range heaps {
		heaps[i] = ranking.New(k)
		// Each query publishes its k-th distance through its own cutoff —
		// caller-supplied for cooperating batch runs across shards,
		// private otherwise — and the per-document skip decision below
		// reads the same bound.
		cut := ranking.NewCutoff()
		if cfg.Cutoffs != nil {
			cut = cfg.Cutoffs[i]
		}
		heaps[i].PublishTo(cut)
	}
	stats := Stats{}
	prune := &core.PruneStats{}
	// Pooled per-document batch scan state, reused across every document
	// of this run; see TopK.
	scratch := c.batchScratchPool.Get().(*core.BatchScratch)
	scratch.Reset()
	defer func() {
		scratch.Reset()
		c.batchScratchPool.Put(scratch)
	}()
	coreOpts := core.Options{
		Ctx:                   ctx,
		Model:                 c.model,
		NoTrees:               cfg.NoTrees,
		Prune:                 prune,
		DisableHistogramBound: cfg.NoPrune,
		DisableEarlyAbort:     cfg.NoPrune,
		BatchScratch:          scratch,
	}
	for _, d := range plan {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !cfg.NoFilter {
			// Skip the document only when no query can improve its
			// ranking here: every query's k-th distance bound is finite
			// and every per-query document bound strictly exceeds it.
			skip := true
			for i, h := range heaps {
				if d.bounds[i] <= h.KthBound() {
					skip = false
					break
				}
			}
			if skip {
				stats.Skipped++
				continue
			}
			if d.unprofiled {
				stats.Unprofiled++
			}
		}
		var h0, a0, e0 uint64
		docSpan := -1
		if tr != nil {
			h0, a0, e0 = prune.Snapshot()
			docSpan = tr.Begin(qtrace.SpanScan, d.info.Name)
		}
		err := c.scanBatchInto(qs, ov, st, d.scanDoc, heaps, coreOpts)
		if tr != nil {
			tr.End(docSpan)
			h1, a1, e1 := prune.Snapshot()
			tr.SetPrune(docSpan, h1-h0, a1-a0, e1-e0)
		}
		if err != nil {
			return nil, err
		}
		stats.Scanned++
	}
	stats.setPrune(prune)
	stats.BaseDictLabels = st.base.Len()
	stats.OverlayLabels = ov.Added()
	stats.Quarantined = st.quarantined
	if cfg.Stats != nil {
		*cfg.Stats = stats
	}

	mergeSpan := tr.Begin(qtrace.SpanMerge, "")
	docsBuf := c.planPool.Get().(*[]scanDoc)
	docsOnly := (*docsBuf)[:0]
	for _, d := range plan {
		docsOnly = append(docsOnly, d.scanDoc)
	}
	out := make([][]Match, len(heaps))
	for i, h := range heaps {
		out[i] = c.resolve(h, docsOnly)
	}
	*docsBuf = docsOnly[:0]
	c.planPool.Put(docsBuf)
	tr.End(mergeSpan)
	return out, nil
}

// planBatch computes the batch scan plan: one pass over the snapshot's
// documents deriving, per query, the sound label lower bound and the
// pq-gram ordering distance. Documents are ordered by their minimum
// pq-gram distance over the queries (then minimum bound, then id), so a
// document promising for any query of the batch is scanned early. The
// plan is built on dst's backing array (from the corpus batch pool).
func (c *Corpus) planBatch(st *snapshot, qs []*tree.Tree, cfg *QueryConfig, dst []batchDoc) ([]batchDoc, error) {
	qGrams := make([]*pqgram.Profile, len(qs))
	qLabels := make([]map[int]int, len(qs))
	for i, q := range qs {
		g, err := pqgram.New(q, c.p, c.q)
		if err != nil {
			return dst, err
		}
		qGrams[i] = g
		labels := make(map[int]int, q.Size())
		for j := 0; j < q.Size(); j++ {
			labels[q.LabelID(j)]++
		}
		qLabels[i] = labels
	}

	var selected map[string]bool
	if cfg.Docs != nil {
		selected = make(map[string]bool, len(cfg.Docs))
		for _, n := range cfg.Docs {
			selected[n] = false
		}
	}

	plan := dst
	offset := 0
	for _, d := range st.docs {
		include := true
		if selected != nil {
			if _, ok := selected[d.Name]; !ok {
				include = false
			} else {
				selected[d.Name] = true
			}
		}
		if include {
			bd := batchDoc{
				scanDoc: scanDoc{info: d, offset: offset},
				bounds:  make([]float64, len(qs)),
			}
			if !cfg.NoFilter {
				if p := st.profiles[d.ID]; p != nil {
					bd.pqdist = math.MaxInt
					minBound := math.Inf(1)
					for i := range qs {
						bd.bounds[i] = labelLowerBound(qLabels[i], p.labels)
						pqd, err := pqgram.Distance(qGrams[i], p.grams)
						if err != nil {
							return plan, err
						}
						if pqd < bd.pqdist {
							bd.pqdist = pqd
						}
						if bd.bounds[i] < minBound {
							minBound = bd.bounds[i]
						}
					}
					bd.bound = minBound
				} else {
					// Unprofiled documents are never skipped (bounds stay
					// 0) and sort to the end of the scan order.
					bd.unprofiled = true
					bd.pqdist = math.MaxInt
				}
			}
			plan = append(plan, bd)
		}
		offset += d.Nodes
	}
	for name, found := range selected {
		if !found {
			return plan, fmt.Errorf("corpus: unknown document %q", name)
		}
	}
	if !cfg.NoFilter {
		sort.SliceStable(plan, func(i, j int) bool {
			if plan[i].pqdist != plan[j].pqdist {
				return plan[i].pqdist < plan[j].pqdist
			}
			if plan[i].bound != plan[j].bound {
				return plan[i].bound < plan[j].bound
			}
			return plan[i].info.ID < plan[j].info.ID
		})
	}
	return plan, nil
}

// scanBatchInto scans one document for all queries at once, by the same
// choice of form as scanInto: columns when the store decoded at load,
// else a stream from the cached image or the file.
func (c *Corpus) scanBatchInto(qs []*tree.Tree, ov dict.Dict, st *snapshot, d scanDoc, heaps []*ranking.Heap, opts core.Options) error {
	var err error
	ds := st.stores[d.info.ID]
	switch {
	case ds != nil && ds.cols != nil:
		err = core.PostorderBatchColumnsInto(qs, ds.cols, heaps, d.offset, opts)
	case ds != nil:
		ir := c.readerPool.Get().(*docstore.ImageReader)
		ir.Reset(ds.img, ds.remap)
		err = core.PostorderBatchInto(qs, ir, heaps, d.offset, opts)
		c.readerPool.Put(ir)
	default:
		err = c.withFileReader(ov, d, func(r *docstore.Reader) error {
			return core.PostorderBatchInto(qs, r, heaps, d.offset, opts)
		})
	}
	if err != nil {
		return &ScanError{Doc: d.info.Name, Err: err}
	}
	return nil
}
