// Package shard implements horizontally sharded corpora behind the
// corpus.Searcher contract: a Group fans one query out over several child
// Searchers and merges their rankings, and a Client makes a remote tasmd
// instance usable as such a child. Because Group and Client are themselves
// Searchers, tiers compose: a tasmd router can serve a Group of Clients
// pointing at tasmd leaves, each of which serves its own directory — or
// another router.
//
// # Result equivalence
//
// A Group's results are identical to those of a single corpus holding the
// union of the shards' documents ingested in shard order: every shard
// answers with its own top k, and the rankings merge by (distance, shard
// order, position within shard) — the same deterministic order the merged
// corpus would produce. Document names should be unique across shards,
// exactly as they must be within one corpus.
//
// # Cross-shard pruning
//
// The group hands every shard one shared corpus.Cutoff. Each shard's scan
// publishes its running k-th distance into it and prunes against it, so a
// shard still scanning skips documents and candidates that results
// already found by other shards prove irrelevant. The published bound is
// always an upper bound on the final global k-th distance and all gates
// compare strictly, so sharing never changes results. (The cutoff does
// not cross process boundaries: a remote Client prunes inside its own
// server only.)
package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"tasm/corpus"
	"tasm/internal/qtrace"
	"tasm/internal/tree"
)

// namer is implemented by children that know their own name (Client
// reports its URL); others are named by position.
type namer interface{ Name() string }

// docLister is implemented by children whose document listing can fail
// and be cancelled (Client, nested Groups). The group prefers it over
// the infallible Searcher.Docs when resolving WithDocs selections, so a
// shard outage is reported as that shard's failure instead of being
// misread as "document unknown".
type docLister interface {
	DocsContext(ctx context.Context) ([]corpus.DocInfo, error)
}

// Group is a scatter-gather corpus: a corpus.Searcher over N child
// Searchers whose results merge into one ranking. The zero value is an
// empty group answering every query with no matches; children themselves
// must be safe for concurrent use (every provided Searcher is).
type Group struct {
	children []child
}

type child struct {
	name string
	s    corpus.Searcher
}

// NewGroup returns a Group over the given shards, in ranking order:
// distance ties resolve in favour of earlier shards, exactly as earlier
// manifest documents win ties within one corpus. Shards implementing
// Name() string (like *Client) keep their name for error attribution;
// the rest are named "shard<i>".
func NewGroup(shards ...corpus.Searcher) *Group {
	g := &Group{children: make([]child, len(shards))}
	for i, s := range shards {
		name := fmt.Sprintf("shard%d", i)
		if n, ok := s.(namer); ok && n.Name() != "" {
			name = n.Name()
		}
		g.children[i] = child{name: name, s: s}
	}
	return g
}

var _ corpus.Searcher = (*Group)(nil)

// Len returns the number of shards.
func (g *Group) Len() int { return len(g.children) }

// Docs returns the concatenation of the shards' document listings in
// shard order — the manifest order of the equivalent merged corpus.
// Shards are listed concurrently; an unreachable remote shard
// contributes its client's last-known listing (see Client.Docs). Use
// DocsContext to fail on unreachable shards instead.
func (g *Group) Docs() []corpus.DocInfo {
	docs, _ := g.gatherDocs(context.Background(), false)
	return docs
}

// DocsContext lists every shard concurrently under ctx and fails (naming
// the shard) if any listing cannot be fetched fresh.
func (g *Group) DocsContext(ctx context.Context) ([]corpus.DocInfo, error) {
	return g.gatherDocs(ctx, true)
}

var _ docLister = (*Group)(nil)

// gatherDocs fans the per-shard listings out concurrently. In strict
// mode the first fetch failure aborts (attributed to its shard); in
// lenient mode failed shards contribute what their fallback offers.
func (g *Group) gatherDocs(ctx context.Context, strict bool) ([]corpus.DocInfo, error) {
	lists := make([][]corpus.DocInfo, len(g.children))
	errs := make([]error, len(g.children))
	var wg sync.WaitGroup
	for i := range g.children {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if dl, ok := g.children[i].s.(docLister); ok && strict {
				lists[i], errs[i] = dl.DocsContext(ctx)
				return
			}
			lists[i] = g.children[i].s.Docs()
		}(i)
	}
	wg.Wait()
	var out []corpus.DocInfo
	for i, err := range errs {
		if err != nil {
			return nil, attribute(g.children[i].name, err)
		}
		out = append(out, lists[i]...)
	}
	return out, nil
}

// NumDocs sums the shards' cached document counts without any remote
// round trip (see Client.NumDocs); false if any shard's count has never
// been observed. Liveness probes and metric scrapes use it so a dead
// leaf cannot stall them.
func (g *Group) NumDocs() (int, bool) {
	total, known := 0, true
	for _, ch := range g.children {
		if nd, ok := ch.s.(interface{ NumDocs() (int, bool) }); ok {
			n, k := nd.NumDocs()
			total += n
			known = known && k
			continue
		}
		total += len(ch.s.Docs())
	}
	return total, known
}

// Generation returns the sum of the shards' generations. Each shard's
// generation only grows and is persisted by its corpus, so the sum
// changes whenever any shard's document set does and never repeats a
// value for a different overall document set — which is all a
// generation-keyed result cache needs.
func (g *Group) Generation() uint64 {
	var gen uint64
	for _, ch := range g.children {
		gen += ch.s.Generation()
	}
	return gen
}

// TopK is TopKBatch for a batch of one.
//
//tasm:allow ctxpoll — cancellation is delegated to TopKBatch
func (g *Group) TopK(ctx context.Context, q *tree.Tree, k int, opts ...corpus.QueryOption) ([]corpus.Match, error) {
	if err := corpus.ValidateQuery(q, k); err != nil {
		return nil, err
	}
	results, err := g.TopKBatch(ctx, []*tree.Tree{q}, k, opts...)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// TopKBatch fans the queries out to every shard concurrently — every
// shard runs its own single-pass scan — and merges each query's per-shard
// rankings into its global top k. Results are identical to a single
// corpus holding the union of the shards' documents; the shards prune
// against each other through one shared cutoff per query. A failing shard
// fails the whole run with the shard named in the error (errors.As still
// finds a wrapped *corpus.ScanError) — unless the run opted into
// corpus.WithPartialResults, in which case backend-side failures degrade
// to a best-effort merge of the surviving shards, reported through
// Stats.Degraded.
//
//tasm:allow ctxpoll — cancellation is delegated: scatter runs every child Searcher under a derived ctx, each child polls per candidate, and a child ctx error fails the fan-out
func (g *Group) TopKBatch(ctx context.Context, queries []*tree.Tree, k int, opts ...corpus.QueryOption) ([][]corpus.Match, error) {
	cfg := corpus.ResolveQueryOptions(opts...)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := corpus.ValidateBatch(queries, k, &cfg); err != nil {
		return nil, err
	}
	perDocs, err := g.splitDocs(ctx, cfg.Docs)
	if err != nil {
		return nil, err
	}
	cuts := cfg.Cutoffs
	if cuts == nil {
		cuts = make([]*corpus.Cutoff, len(queries))
		for i := range cuts {
			cuts[i] = corpus.NewCutoff()
		}
	}

	perShard := make([][][]corpus.Match, len(g.children))
	stats := make([]corpus.Stats, len(g.children))
	degraded, err := g.scatter(ctx, cfg.Partial, perDocs, func(ctx context.Context, i int, docs []string) error {
		childCfg := cfg
		childCfg.Docs = docs
		childCfg.Stats = &stats[i]
		childCfg.Cutoffs = cuts
		rs, err := g.children[i].s.TopKBatch(ctx, queries, k, corpus.WithConfig(childCfg))
		perShard[i] = rs
		return err
	})
	if err != nil {
		return nil, err
	}
	if cfg.Stats != nil {
		*cfg.Stats = corpus.Stats{}
		for i := range stats {
			cfg.Stats.Merge(&stats[i])
		}
		g.noteDegraded(cfg.Stats, degraded)
	}
	tr := qtrace.FromContext(ctx)
	mergeSpan := tr.Begin(qtrace.SpanMerge, "")
	out := make([][]corpus.Match, len(queries))
	for qi := range queries {
		per := make([][]corpus.Match, len(g.children))
		for si := range g.children {
			if perShard[si] != nil {
				per[si] = perShard[si][qi]
			}
		}
		out[qi] = mergeRanked(k, per)
	}
	tr.End(mergeSpan)
	return out, nil
}

// scatter runs fn for every participating shard concurrently and gathers
// failures. perDocs is nil when every shard participates fully; otherwise
// a shard with an empty selection is skipped (none of the requested
// documents live there). fn's errors are attributed to their shard by
// name.
//
// In the default fail-loud mode (partial false) any failure cancels the
// remaining shards through the derived context and fails the call. With
// partial true (corpus.WithPartialResults) a shard failing with a
// backend-side error is recorded as degraded and the rest keep going —
// the caller merges what survived; only when every participating shard
// fails, or a shard fails with a non-backend error (the caller's own
// mistake or cancellation, which no sibling can compensate for), does the
// call fail. The returned slice holds the degraded children's indices.
func (g *Group) scatter(ctx context.Context, partial bool, perDocs [][]string, fn func(ctx context.Context, i int, docs []string) error) ([]int, error) {
	tr := qtrace.FromContext(ctx)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(g.children))
	var wg sync.WaitGroup
	participating := 0
	for i := range g.children {
		var docs []string
		if perDocs != nil {
			if docs = perDocs[i]; len(docs) == 0 {
				continue
			}
		}
		participating++
		wg.Add(1)
		go func(i int, docs []string) {
			defer wg.Done()
			// One span per fan-out leg, recorded into the shared trace
			// (Trace is concurrency-safe); a remote child additionally
			// attaches the leaf's own trace block — see Client.
			span := tr.Begin(qtrace.SpanShard, g.children[i].name)
			err := fn(ctx, i, docs)
			tr.End(span)
			if err != nil {
				errs[i] = attribute(g.children[i].name, err)
				if !partial || !retryableError(err) {
					cancel() // a failed shard fails the query; stop the others
				}
			}
		}(i, docs)
	}
	wg.Wait()
	// Prefer a root-cause error over the context.Canceled noise our own
	// cancel propagated into sibling shards; if every error is a
	// cancellation, the caller's context (or the first shard's) tells the
	// story.
	var firstCancel, firstDegradable error
	var degraded []int
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if firstCancel == nil {
				firstCancel = err
			}
			continue
		}
		if partial && retryableError(err) {
			if firstDegradable == nil {
				firstDegradable = err
			}
			degraded = append(degraded, i)
			continue
		}
		return nil, err
	}
	if firstCancel != nil {
		return nil, firstCancel
	}
	if len(degraded) == participating && firstDegradable != nil {
		// Nothing survived: best-effort has no results to offer, so fail
		// loudly with the first shard's root cause.
		return nil, firstDegradable
	}
	return degraded, nil
}

// noteDegraded appends the degraded children's names to st.Degraded.
func (g *Group) noteDegraded(st *corpus.Stats, degraded []int) {
	for _, i := range degraded {
		st.Degraded = append(st.Degraded, g.children[i].name)
	}
}

// splitDocs partitions a WithDocs selection over the shards: each shard
// receives the requested names it holds, a name no shard holds is an
// error (matching the single-corpus message), and nil means no
// restriction. The per-shard listings are only fetched when a selection
// is present, concurrently and under the request's context; a shard
// whose listing cannot be fetched fails the query attributed to that
// shard — never as a bogus "unknown document" caller error.
func (g *Group) splitDocs(ctx context.Context, names []string) ([][]string, error) {
	if names == nil {
		return nil, nil
	}
	found := make(map[string]bool, len(names))
	for _, n := range names {
		found[n] = false
	}
	per := make([][]string, len(g.children))
	lists := make([][]corpus.DocInfo, len(g.children))
	errs := make([]error, len(g.children))
	var wg sync.WaitGroup
	for i := range g.children {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if dl, ok := g.children[i].s.(docLister); ok {
				lists[i], errs[i] = dl.DocsContext(ctx)
				return
			}
			lists[i] = g.children[i].s.Docs()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, attribute(g.children[i].name, err)
		}
	}
	for i, list := range lists {
		for _, d := range list {
			if _, ok := found[d.Name]; ok {
				per[i] = append(per[i], d.Name)
				found[d.Name] = true
			}
		}
	}
	for _, n := range names {
		if !found[n] {
			return nil, fmt.Errorf("corpus: unknown document %q", n)
		}
	}
	return per, nil
}

// attribute stamps the failing shard's name into the error: a
// *corpus.ScanError without a shard gains one (a fresh value — the
// original may be shared), anything else is wrapped so the shard name
// survives while errors.Is/As keep seeing the cause.
func attribute(name string, err error) error {
	var se *corpus.ScanError
	if errors.As(err, &se) {
		if se.Shard != "" {
			return err // already attributed (a nested group or a client)
		}
		return &corpus.ScanError{Shard: name, Doc: se.Doc, Err: se.Err}
	}
	return fmt.Errorf("shard %s: %w", name, err)
}

// mergeRanked merges per-shard rankings (each already sorted in its
// shard's (distance, position) order) into the global top k. The stable
// sort over the shard-order concatenation realizes the (distance, shard,
// position) order — the order of the equivalent merged corpus.
func mergeRanked(k int, perShard [][]corpus.Match) []corpus.Match {
	n := 0
	for _, ms := range perShard {
		n += len(ms)
	}
	all := make([]corpus.Match, 0, n)
	for _, ms := range perShard {
		all = append(all, ms...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
	if len(all) > k {
		all = all[:k]
	}
	return all
}
