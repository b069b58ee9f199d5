package main

// The oracle: every pool entry's expected answer, computed in process on
// the directories the daemons serve. Three tiers, each checked against
// the one below it:
//
//   - every pool entry: the default (filtered, pruned) in-process scan;
//   - the first exhaustiveN entries: the exhaustive scan, with the
//     document filter and the candidate pruning pipeline both off, one
//     query at a time even for batch requests;
//   - naiveN queries of the churn workload: core.Naive over every
//     fixture document, each reported distance recomputed with
//     ted.ReferenceDistance.
//
// A disagreement between tiers is an oracle failure and fails the run
// outright; a disagreement between an HTTP answer and the oracle is a
// failed request.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"strings"
	"sync"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/core"
	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/ted"
	"tasm/internal/tree"
)

const (
	exhaustiveN = 64
	naiveN      = 8
)

// oracle answers queries in process over the daemons' directories.
type oracle struct {
	corpora  []*corpus.Corpus
	searcher corpus.Searcher
}

// openOracle opens every leaf directory. The daemons are idle while it
// runs (set-up has finished, load has not started), so the open-time
// orphan sweep finds nothing to remove and the two processes only share
// read-only files.
func openOracle(dirs []string) (*oracle, error) {
	o := &oracle{}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	members := make([]corpus.Searcher, len(dirs))
	for i, dir := range dirs {
		c, err := corpus.Open(dir, corpus.WithLogger(quiet))
		if err != nil {
			return nil, err
		}
		o.corpora = append(o.corpora, c)
		members[i] = c
	}
	o.searcher = members[0]
	if len(members) > 1 {
		o.searcher = shard.NewGroup(members...)
	}
	return o, nil
}

// parse parses a bracket query the way tasmd does for this backend: in
// the corpus's dictionary context for a leaf, in a fresh dictionary for a
// router.
func (o *oracle) parse(s string) (*tree.Tree, error) {
	if len(o.corpora) == 1 {
		return o.corpora[0].ParseBracket(s)
	}
	return tree.Parse(dict.New(), s)
}

func renderMatches(sb *strings.Builder, ms []corpus.Match) {
	for _, m := range ms {
		writeMatch(sb, m.Doc.Name, m.Pos, m.Dist, m.Size)
	}
	sb.WriteByte('|')
}

// answer computes one request's canonical answer. exhaustive switches
// the filter and the pruning pipeline off and answers a batch one query
// at a time.
func (o *oracle) answer(r *request, k int, exhaustive bool) (string, error) {
	ctx := context.Background()
	qs := make([]*tree.Tree, len(r.queries))
	for i, s := range r.queries {
		q, err := o.parse(s)
		if err != nil {
			return "", err
		}
		qs[i] = q
	}
	var sb strings.Builder
	switch {
	case exhaustive:
		for _, q := range qs {
			ms, err := o.searcher.TopK(ctx, q, k, corpus.WithoutTrees(), corpus.WithoutFilter(), corpus.WithoutCandidatePruning())
			if err != nil {
				return "", err
			}
			renderMatches(&sb, ms)
		}
	case len(qs) > 1:
		rs, err := o.searcher.TopKBatch(ctx, qs, k, corpus.WithoutTrees())
		if err != nil {
			return "", err
		}
		for _, ms := range rs {
			renderMatches(&sb, ms)
		}
	default:
		ms, err := o.searcher.TopK(ctx, qs[0], k, corpus.WithoutTrees())
		if err != nil {
			return "", err
		}
		renderMatches(&sb, ms)
	}
	return sb.String(), nil
}

// answers returns the expected answer of every pool entry, computed on
// all processors.
func (o *oracle) answers(pool []request, k int) ([]string, error) {
	want := make([]string, len(pool))
	errs := make([]error, len(pool))
	var wg sync.WaitGroup
	work := make(chan int)
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				want[i], errs[i] = o.answer(&pool[i], k, false)
				if errs[i] != nil || i >= exhaustiveN {
					continue
				}
				ex, err := o.answer(&pool[i], k, true)
				if err != nil {
					errs[i] = err
				} else if ex != want[i] {
					errs[i] = fmt.Errorf("bench: oracle tiers disagree on pool entry %d:\n  pruned     %s\n  exhaustive %s", i, want[i], ex)
				}
			}
		}()
	}
	for i := range pool {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return want, nil
}

// naiveAnswer ranks every subtree of every fixture document against q
// with core.Naive, merges the per-document rankings in (distance,
// document order, position) order, and recomputes each surviving distance
// with the recursive reference implementation.
func naiveAnswer(docs []fixtureDoc, query string, k int) (string, error) {
	type hit struct {
		doc int
		q   *tree.Tree // the query, parsed in the document's dictionary
		m   core.Match
	}
	var hits []hit
	for di, doc := range docs {
		q, err := tree.Parse(doc.tree.Dict(), query)
		if err != nil {
			return "", err
		}
		ms, err := core.Naive(q, doc.tree, k, core.Options{})
		if err != nil {
			return "", err
		}
		for _, m := range ms {
			hits = append(hits, hit{di, q, m})
		}
	}
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].m.Dist != hits[j].m.Dist {
			return hits[i].m.Dist < hits[j].m.Dist
		}
		if hits[i].doc != hits[j].doc {
			return hits[i].doc < hits[j].doc
		}
		return hits[i].m.Pos < hits[j].m.Pos
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	var sb strings.Builder
	for _, h := range hits {
		if ref := ted.ReferenceDistance(cost.Unit{}, h.q, h.m.Tree); ref != h.m.Dist {
			return "", fmt.Errorf("bench: naive oracle: Zhang–Shasha says %g, the reference recursion %g for %s in %s",
				h.m.Dist, ref, h.m.Tree, docs[h.doc].name)
		}
		writeMatch(&sb, docs[h.doc].name, h.m.Pos, h.m.Dist, h.m.Size)
	}
	sb.WriteByte('|')
	return sb.String(), nil
}

// checkNaive compares the first naiveN single-query pool entries against
// the naive oracle.
func checkNaive(docs []fixtureDoc, pool []request, want []string, k int) error {
	for i := 0; i < naiveN && i < len(pool); i++ {
		got, err := naiveAnswer(docs, pool[i].queries[0], k)
		if err != nil {
			return err
		}
		if got != want[i] {
			return fmt.Errorf("bench: naive oracle disagrees on pool entry %d:\n  corpus %s\n  naive  %s", i, want[i], got)
		}
	}
	return nil
}
