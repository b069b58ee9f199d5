package corpus

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"tasm/internal/core"
	"tasm/internal/dict"
	"tasm/internal/pqgram"
	"tasm/internal/qtrace"
	"tasm/internal/ranking"
	"tasm/internal/tree"
	"tasm/internal/work"
)

// Match is one ranked subtree of a corpus query: the document it came
// from, its 1-based postorder position within that document, its distance
// to the query, its size, and (unless suppressed) the subtree itself.
type Match struct {
	Doc  DocInfo
	Pos  int
	Dist float64
	Size int
	Tree *tree.Tree
}

// Stats reports what a TopK run did, for observability and tests. Its
// JSON form is the "stats" object of tasmd's query responses, which
// shard.Client decodes back into a Stats, so a counter added here needs
// its JSON tag and its line in Merge, and no other declaration; a scan
// counter is declared in work.Counts instead.
type Stats struct {
	// Scanned is the number of documents scanned by TASM-postorder, each
	// from its resident columns.
	Scanned int `json:"scanned"`
	// Skipped is the number of documents pruned by the label-histogram
	// lower bound without being opened.
	Skipped int `json:"skipped"`
	// Counts is the work of the scans of the run's documents: candidates
	// gated, evaluations aborted, completed and answered from the memo,
	// candidate-cache misses (see work.Counts).
	work.Counts
	// BaseDictLabels is the size of the frozen corpus base dictionary the
	// run scanned against. It grows only with ingests, never with
	// queries.
	BaseDictLabels int `json:"baseDictLabels"`
	// OverlayLabels is the number of request-local labels held by the
	// query's copy-on-write overlay when the run finished — query labels
	// the corpus has never seen. They are released with the overlay; a
	// TopK run never adds a label to the shared dictionary.
	OverlayLabels int `json:"overlayLabels"`
	// Quarantined is the number of documents the integrity scrub has
	// removed from this backend's serving set (files moved to the corpus
	// quarantine directory after failing checksum verification). It
	// counts lifetime quarantines recorded in the manifest, not per-query
	// work: a non-zero value means the corpus is serving exact results
	// over a smaller document set until an operator restores or re-ingests
	// the lost documents.
	Quarantined int `json:"quarantined,omitempty"`
	// Cached is set only by a serving layer's result cache (tasmd), when
	// it answered from a stored result instead of running the query. No
	// Searcher sets it, and Merge leaves it alone: each serving layer
	// reports its own cache.
	Cached bool `json:"cached"`

	// The remaining fields are the fault-tolerance accounting of the
	// router tier (shard.Group, shard.ReplicaSet, shard.Client). A single
	// corpus leaves them zero.

	// Retries is the number of extra remote attempts performed after
	// retryable failures (connect errors, gateway-class 5xx responses).
	Retries uint64 `json:"retries,omitempty"`
	// Hedges is the number of hedge or failover requests replica sets
	// fired beyond the primary attempt.
	Hedges uint64 `json:"hedges,omitempty"`
	// Retried names the shards that needed at least one retry.
	Retried []string `json:"retried,omitempty"`
	// Hedged names the replica sets where a hedge or failover fired.
	Hedged []string `json:"hedged,omitempty"`
	// BreakerSkipped names the shards or replicas an open circuit breaker
	// skipped without a network round trip.
	BreakerSkipped []string `json:"breakerSkipped,omitempty"`
	// Degraded names the shards whose results are missing from this
	// answer. It is only ever non-empty under WithPartialResults; the
	// default error policy fails the query instead.
	Degraded []string `json:"degraded,omitempty"`
}

// Merge folds another backend's statistics of the same run into s: every
// counter adds (the dictionary gauges too — each shard owns a frozen base
// of its own) and every name list concatenates. Cached is not merged.
func (s *Stats) Merge(o *Stats) {
	s.Scanned += o.Scanned
	s.Skipped += o.Skipped
	s.Counts.Add(o.Counts)
	s.BaseDictLabels += o.BaseDictLabels
	s.OverlayLabels += o.OverlayLabels
	s.Quarantined += o.Quarantined
	s.MergeFault(o)
}

// MergeFault folds another run's fault-tolerance accounting into s:
// counters add, name lists concatenate. Scan counters are left alone —
// a replica set adopts only the winning attempt's scan statistics, but
// every attempt's fault accounting is worth keeping.
func (s *Stats) MergeFault(o *Stats) {
	s.Retries += o.Retries
	s.Hedges += o.Hedges
	s.Retried = append(s.Retried, o.Retried...)
	s.Hedged = append(s.Hedged, o.Hedged...)
	s.BreakerSkipped = append(s.BreakerSkipped, o.BreakerSkipped...)
	s.Degraded = append(s.Degraded, o.Degraded...)
}

// QueryOption configures one TopK or TopKBatch run.
type QueryOption func(*QueryConfig)

// QueryConfig is the resolved form of a run's options. The fields are
// exported so Searcher implementations outside this package (the
// scatter-gather shard.Group, the remote shard.Client) can interpret the
// same options a *Corpus accepts; callers configure runs with the With*
// option constructors rather than building a QueryConfig by hand.
type QueryConfig struct {
	// Docs restricts the run to the named documents; nil means all.
	Docs []string
	// NoTrees suppresses materialization of matched subtrees.
	NoTrees bool
	// NoFilter disables the document-level profile index.
	NoFilter bool
	// NoPrune disables the per-candidate pruning pipeline.
	NoPrune bool
	// Stats, when non-nil, receives the run's scan statistics.
	Stats *Stats
	// Cutoffs, when non-nil, holds per query the shared k-th-distance bound
	// the run publishes to and prunes against; a scatter-gather group
	// passes the same cutoffs to every shard so they prune against each
	// other's results. Its length must equal the number of queries (one,
	// for TopK). Nil means the run uses private cutoffs.
	Cutoffs []*Cutoff
	// Partial opts a scatter-gather run into graceful degradation: a
	// shard that fails (with all of its replicas) is dropped from the
	// merge and reported in Stats.Degraded instead of failing the query.
	// A single corpus ignores it.
	Partial bool
}

// ResolveQueryOptions applies opts to a zero QueryConfig and returns it.
// Searcher implementations use it to interpret the options they are
// handed.
func ResolveQueryOptions(opts ...QueryOption) QueryConfig {
	var cfg QueryConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithConfig replaces the whole resolved configuration. It is the
// forwarding primitive for Searcher wrappers: resolve the caller's
// options, adjust fields (per-shard stats, the shared cutoff), and hand
// the adjusted config down as a single option.
func WithConfig(cfg QueryConfig) QueryOption {
	return func(q *QueryConfig) { *q = cfg }
}

// WithDocs restricts the query to the named documents (default: all).
func WithDocs(names ...string) QueryOption {
	return func(q *QueryConfig) { q.Docs = names }
}

// WithoutTrees suppresses materialization of the matched subtrees
// (Match.Tree stays nil), saving allocation when only positions and
// distances are needed.
func WithoutTrees() QueryOption {
	return func(q *QueryConfig) { q.NoTrees = true }
}

// WithoutFilter disables the profile index: documents are scanned
// exhaustively in manifest order with no skipping. Results are identical
// to the filtered scan; it exists as the equivalence oracle for tests and
// for debugging filter behaviour.
func WithoutFilter() QueryOption {
	return func(q *QueryConfig) { q.NoFilter = true }
}

// WithoutCandidatePruning disables the per-candidate pruning pipeline
// inside document scans (the label-histogram gate and the early-abort
// TED evaluation), leaving only the paper's τ/τ′ bounds. Results are
// identical; it exists as the equivalence oracle for tests and for
// benchmarking the gates.
func WithoutCandidatePruning() QueryOption {
	return func(q *QueryConfig) { q.NoPrune = true }
}

// WithPartialResults opts the run into graceful degradation on a
// scatter-gather backend: when a shard — including every replica of it —
// is down, the query returns the surviving shards' merged results
// best-effort, with the missing shards named in Stats.Degraded, instead
// of failing. The default (without this option) stays fail-loud: any
// shard failure fails the whole query naming the shard. A single corpus
// has no shards to lose and ignores the option.
func WithPartialResults() QueryOption {
	return func(q *QueryConfig) { q.Partial = true }
}

// WithStats records scan statistics into s.
func WithStats(s *Stats) QueryOption {
	return func(q *QueryConfig) { q.Stats = s }
}

// scanDoc is one document of a run's scan plan. It is small, so that
// ordering the plan moves small values.
type scanDoc struct {
	info   *DocInfo // the manifest entry, in the snapshot's docs
	offset int      // global position offset: Σ nodes of manifest-earlier docs
	slot   int      // position in the snapshot's docs: the profile index slot, and the row in queryPlan.bounds
	bound  float64  // the smallest of the queries' lower bounds (ordering)
	pqdist int      // the smallest pq-gram distance of the whole doc to a query (ordering)
}

// queryPlan is the pooled scan plan of one run.
type queryPlan struct {
	docs []scanDoc // in scan order
	// bounds holds, per (document, query), a sound lower bound on any
	// subtree distance in the document: one flat slab, a row of len(queries)
	// per document of the snapshot at scanDoc.slot, so planning allocates
	// nothing per document.
	bounds []float64
	// labelNodes holds, per (document, query) in the same layout, how many
	// of the document's nodes carry one of the query's labels: what the
	// scan's candidate gate would read from the document's label postings
	// (core.PostorderBatchColumnsInto).
	labelNodes []int
	// byOffset is docs by ascending offset, for resolving global positions.
	byOffset []scanDoc
	// Per (document, query) in the same layout, the counters the profile
	// index fills: Σ min(c_Q, c_D) over the shared pq-grams and over the
	// shared labels.
	grams, labels []int
	// qGrams holds each query's number of pq-grams, |P_Q|.
	qGrams []int
	// qLabels and qCounts hold one query's distinct label ids, ascending,
	// and their multiplicities.
	qLabels, qCounts []int32
}

// resetCounts returns s resized to n zeroed counters, reusing its backing
// array when it is large enough.
func resetCounts(s []int, n int) []int {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// requestOverlay resolves the queries of one run against a snapshot: trees
// already interned in one overlay over the snapshot's base are used as-is
// (the common case — ParseBracket/ParseXML/ImportTree built exactly that
// for a single query); any others are re-interned together into a fresh
// overlay, so a batch interns each distinct query label once. Either way
// the returned trees resolve corpus labels to their shared frozen ids and
// keep request-local labels above the base watermark, and the overlay
// dies with the request.
func requestOverlay(st *snapshot, queries []*tree.Tree) (*dict.Overlay, []*tree.Tree) {
	if o, ok := queries[0].Dict().(*dict.Overlay); ok && o.Base() == dict.Dict(st.base) {
		shared := true
		for _, q := range queries[1:] {
			shared = shared && q.Dict() == dict.Dict(o)
		}
		if shared {
			return o, queries
		}
	}
	o := dict.NewOverlay(st.base)
	qs := make([]*tree.Tree, len(queries))
	for i, q := range queries {
		qs[i] = q.Reintern(o)
	}
	return o, qs
}

// TopK returns the k subtrees closest to q across the corpus, ascending
// by (distance, document manifest order, position in document): TopKBatch
// for a batch of one.
func (c *Corpus) TopK(ctx context.Context, q *tree.Tree, k int, opts ...QueryOption) ([]Match, error) {
	if err := ValidateQuery(q, k); err != nil {
		return nil, err
	}
	results, err := c.TopKBatch(ctx, []*tree.Tree{q}, k, opts...)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// TopKBatch answers one or several queries across the corpus in one pass:
// the candidate subtrees of every selected document are enumerated once,
// and all queries rank them during that single scan
// (core.PostorderBatchColumnsInto). Result i corresponds to queries[i]
// and does not depend on what else is in the batch. The queries may come
// from any dictionary: they are resolved through a request-scoped overlay
// of the corpus dictionary, so the shared dictionary is never mutated by
// a query.
//
// The context carries cancellation and deadline: a cancelled ctx stops
// the run between documents and mid-scan (the candidate loop polls it
// once per visited candidate; a run of candidates the label-histogram
// gate steps over unvisited is a bounded loop over one document) and
// returns ctx.Err(). A nil ctx is treated as context.Background().
//
// Documents are scanned most-promising-first (ascending smallest pq-gram
// distance to any query) into one shared ranking per query, so each
// query's running k-th distance both tightens the τ′ bound inside later
// documents and lets its label-histogram lower bound skip documents
// outright — a document is skipped only when it is prunable for every
// query. The result is deterministic and identical to an exhaustive scan
// of every selected document.
func (c *Corpus) TopKBatch(ctx context.Context, queries []*tree.Tree, k int, opts ...QueryOption) ([][]Match, error) {
	cfg := ResolveQueryOptions(opts...)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ValidateBatch(queries, k, &cfg); err != nil {
		return nil, err
	}

	st := c.snapshot()
	ov, qs := requestOverlay(st, queries)

	// A trace in the context records stage spans: planning, every scanned
	// document (with its work counts), and the final merge. Spans stay
	// at document granularity — the candidate loop below this layer never
	// sees the trace, so its 0 allocs/candidate invariant is untouched.
	// All qtrace methods are nil-safe; an untraced run pays three nil
	// checks per document.
	tr := qtrace.FromContext(ctx)
	planSpan := tr.Begin(qtrace.SpanPlan, "")
	plan := c.planPool.Get().(*queryPlan)
	defer c.planPool.Put(plan)
	err := c.plan(st, qs, &cfg, plan)
	tr.End(planSpan)
	if err != nil {
		return nil, err
	}

	heaps := make([]*ranking.Heap, len(qs))
	for i := range heaps {
		heaps[i] = ranking.New(k)
		// Each heap publishes its k-th distance through a lock-free cutoff
		// shared by every per-document scan: the kernel's heap pushes and
		// the document-level skip decision below read one atomic, and the
		// bound carries across document boundaries so earlier documents
		// tighten later ones. Caller-supplied cutoffs (a scatter-gather
		// group shares them across shards) additionally carry bounds in
		// from cooperating runs.
		cut := ranking.NewCutoff()
		if cfg.Cutoffs != nil {
			cut = cfg.Cutoffs[i]
		}
		heaps[i].PublishTo(cut)
	}
	stats := Stats{}
	// Each document scan counts its work into doc, which is added to the
	// run's and becomes its trace span's.
	var doc work.Counts
	// Per-document scan state — distance computers, histograms, candidate
	// source, candidate view — comes from the corpus pool and is reused
	// across every document of this run (and across runs, for the parts
	// that carry only capacity). Reset detaches it from whatever queries a
	// previous run built it for.
	scratch := c.scratchPool.Get().(*core.ScanScratch)
	scratch.Reset()
	defer func() {
		scratch.Reset() // drop query-lifetime references before pooling
		c.scratchPool.Put(scratch)
	}()
	coreOpts := core.Options{
		Ctx:                   ctx,
		Model:                 c.model,
		NoTrees:               cfg.NoTrees,
		Prune:                 &doc,
		DisableHistogramBound: cfg.NoPrune,
		DisableEarlyAbort:     cfg.NoPrune,
		Scratch:               scratch,
	}
	for _, d := range plan.docs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !cfg.NoFilter {
			// Skip the document only when no query can improve its ranking
			// here: every query's document bound strictly exceeds its k-th
			// distance bound (+Inf until its ranking fills).
			skip := true
			for i, bound := range plan.bounds[d.slot*len(qs):][:len(qs)] {
				if bound <= heaps[i].KthBound() {
					skip = false
					break
				}
			}
			if skip {
				stats.Skipped++
				continue
			}
		}
		docSpan := tr.Begin(qtrace.SpanScan, d.info.Name)
		// The label-node counts the plan read off the profile index steer
		// the candidate gate; without them (no filter) it walks.
		var labelNodes []int
		if !cfg.NoFilter {
			labelNodes = plan.labelNodes[d.slot*len(qs):][:len(qs)]
		}
		// One form per document: its columns, decoded at load — candidates
		// by index arithmetic, no ring buffer, no byte of the file read.
		ds := st.stores[d.info.ID]
		doc = work.Counts{}
		err := core.PostorderBatchColumnsInto(qs, ds.cols, &ds.cands, labelNodes, heaps, d.offset, coreOpts)
		tr.End(docSpan)
		tr.SetPrune(docSpan, doc)
		stats.Counts.Add(doc)
		if err != nil {
			return nil, &ScanError{Doc: d.info.Name, Err: err}
		}
		stats.Scanned++
	}
	stats.BaseDictLabels = st.base.Len()
	stats.OverlayLabels = ov.Added()
	stats.Quarantined = st.quarantined
	if cfg.Stats != nil {
		*cfg.Stats = stats
	}
	mergeSpan := tr.Begin(qtrace.SpanMerge, "")
	out := make([][]Match, len(heaps))
	for i, h := range heaps {
		out[i] = resolve(h, plan.byOffset)
	}
	tr.End(mergeSpan)
	return out, nil
}

// plan snapshots the documents a run will consider and computes their
// offsets and, per query, the sound label lower bound and the pq-gram
// ordering distance, into p's pooled backing arrays (steady state appends
// without allocating). Documents are ordered by their minimum pq-gram
// distance over the queries (then minimum bound, then id), so a document
// promising for any query of the batch is scanned early. The queries must
// already be resolved through an overlay over st.base, so their label ids
// are commensurable with the profile index's.
//
// Both values come from the snapshot's profile index, whose postings list
// per gram and per label the documents that hold it. For each query the
// postings of its distinct grams and labels add min(c_Q, c_D) into a
// per-document counter (and c_D, for the labels, into labelNodes), so
// that per document
//
//	pq-gram distance = |P_Q| + |P_D| − 2·Σ_grams min(c_Q, c_D)
//	label bound      = |Q| − Σ_labels min(c_Q, c_D) = Σ_labels max(0, c_Q − c_D)
//
// The label bound is the number of query nodes that cannot be mapped to an
// equal-labelled document node. In any edit mapping each such node is
// deleted (cost ≥ 1) or renamed (cost ≥ 1), so every subtree of the
// document — whose labels are a sub-bag of the document's — has distance
// at least this bound under any Definition-4 cost model. A query label the
// corpus has never seen has no postings and counts as missing everywhere.
func (c *Corpus) plan(st *snapshot, qs []*tree.Tree, cfg *QueryConfig, p *queryPlan) error {
	nq := len(qs)
	p.docs = p.docs[:0]
	filter := !cfg.NoFilter
	var idx *profileIndex
	if filter {
		var err error
		if idx, err = st.index(c.p, c.q); err != nil {
			return err
		}
		n := len(st.docs) * nq
		p.bounds = slices.Grow(p.bounds[:0], n)[:n]
		p.labelNodes = resetCounts(p.labelNodes, n)
		p.grams = resetCounts(p.grams, n)
		p.labels = resetCounts(p.labels, n)
		p.qGrams = p.qGrams[:0]
		for i, q := range qs {
			g, err := pqgram.New(q, c.p, c.q)
			if err != nil {
				return err
			}
			p.qGrams = append(p.qGrams, g.Size())
			hashes, counts := g.Grams()
			addOverlap(idx.grams, hashes, counts, p.grams, nil, i, nq)
			p.qLabels, p.qCounts = countLabels(q.LabelIDs(), p.qLabels, p.qCounts)
			addOverlap(idx.labels, p.qLabels, p.qCounts, p.labels, p.labelNodes, i, nq)
		}
	}

	var selected map[string]bool
	if cfg.Docs != nil {
		selected = make(map[string]bool, len(cfg.Docs))
		for _, n := range cfg.Docs {
			selected[n] = false
		}
	}

	// Offsets follow manifest order over ALL documents (not just the
	// selection), so a subtree's global position — and with it the
	// deterministic tie-break — is a property of the corpus, stable
	// across selections and scan orders.
	offset := 0
	for slot := range st.docs {
		d := &st.docs[slot]
		include := true
		if selected != nil {
			if _, ok := selected[d.Name]; !ok {
				include = false
			} else {
				selected[d.Name] = true
			}
		}
		if include {
			sd := scanDoc{info: d, offset: offset, slot: slot}
			if filter {
				sd.pqdist, sd.bound = math.MaxInt, math.Inf(1)
				row := slot * nq
				for i, q := range qs {
					p.bounds[row+i] = float64(q.Size() - p.labels[row+i])
					sd.pqdist = min(sd.pqdist, p.qGrams[i]+idx.totals[slot]-2*p.grams[row+i])
					sd.bound = min(sd.bound, p.bounds[row+i])
				}
			}
			p.docs = append(p.docs, sd)
		}
		offset += d.Nodes
	}
	for name, found := range selected {
		if !found {
			return fmt.Errorf("corpus: unknown document %q", name)
		}
	}
	p.byOffset = append(p.byOffset[:0], p.docs...)
	if filter {
		// Slots ascend with document ids (the manifest lists documents in
		// ascending id order), so the order is total and an unstable sort
		// yields it as surely as a stable one.
		slices.SortFunc(p.docs, func(a, b scanDoc) int {
			if c := cmp.Compare(a.pqdist, b.pqdist); c != 0 {
				return c
			}
			if c := cmp.Compare(a.bound, b.bound); c != 0 {
				return c
			}
			return cmp.Compare(a.slot, b.slot)
		})
	}
	return nil
}

// ScanError wraps a failure to scan a document, or to reach a shard,
// during TopK. It signals backend-side problems as opposed to bad query
// input, so servers can map it to an internal error rather than blaming
// the caller. errors.As surfaces it through any wrapping a scatter-gather
// merge adds, so a one-shard failure stays attributable to that shard.
type ScanError struct {
	// Shard names the backend the failure came from. A single corpus
	// leaves it empty; a scatter-gather group stamps the failing shard's
	// name, and a remote client its own.
	Shard string
	// Doc is the name of the document whose scan failed; empty when the
	// failure is not attributable to one document (e.g. a failed remote
	// call).
	Doc string
	Err error
}

func (e *ScanError) Error() string {
	switch {
	case e.Shard != "" && e.Doc != "":
		return fmt.Sprintf("corpus: shard %s: scanning document %q: %v", e.Shard, e.Doc, e.Err)
	case e.Shard != "":
		return fmt.Sprintf("corpus: shard %s: %v", e.Shard, e.Err)
	default:
		return fmt.Sprintf("corpus: scanning document %q: %v", e.Doc, e.Err)
	}
}

func (e *ScanError) Unwrap() error { return e.Err }

// resolve maps one ranking's global positions back to (document, local
// position) matches, in final ranking order.
func resolve(heap *ranking.Heap, byOffset []scanDoc) []Match {
	out := make([]Match, 0, heap.Len())
	for _, e := range heap.Sorted() {
		i := sort.Search(len(byOffset), func(i int) bool { return byOffset[i].offset >= e.Pos }) - 1
		d := byOffset[i]
		out = append(out, Match{
			Doc:  *d.info,
			Pos:  e.Pos - d.offset,
			Dist: e.Dist,
			Size: e.Size,
			Tree: e.Tree,
		})
	}
	return out
}
