package ted

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tasm/internal/cost"
	"tasm/internal/datagen"
	"tasm/internal/dict"
	"tasm/internal/tree"
)

// boundedFixture is the shape of the bench's leaf-ted workload: one
// XMark(1) document, a 16-node query drawn from it, and the views a
// TASM-postorder scan would hand the bounded evaluation — the maximal
// subtrees of 5–30 nodes, in document order.
func boundedFixture(tb testing.TB) (*tree.Tree, []*tree.View) {
	tb.Helper()
	d := dict.New()
	doc, err := datagen.XMark(1).Tree(d, 1)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := datagen.QueryFromDocument(doc, rand.New(rand.NewSource(1)), 16)
	if err != nil {
		tb.Fatal(err)
	}
	var views []*tree.View
	for rt := doc.Size() - 1; rt >= 0 && len(views) < 2000; {
		switch size := doc.SubtreeSize(rt); {
		case size > 30:
			rt--
		case size < 5:
			rt -= size
		default:
			views = append(views, viewOf(tb, doc.Subtree(rt)))
			rt -= size
		}
	}
	return q, views
}

// relevantNodes is the summed size of the subtrees rooted at the keyroots:
// the rows (query) or columns (view) of all forest-distance matrices.
func relevantNodes(lml, keyroots []int) int {
	n := 0
	for _, k := range keyroots {
		n += k - lml[k] + 1
	}
	return n
}

// BenchmarkBoundedView is the in-repo reproducer of the bench's
// ted.bounded_us: one bounded evaluation per view of the leaf-ted-shaped
// fixture, at the k-th distances such a query settles on and unbounded.
// One iteration is one query's worth of views on a computer whose memo
// starts empty, as a query's does, so the repeats within the pass — and
// only those — are memo hits; hits/view is the share of views answered
// from a view entry, pairs/view and keyroot-hits/view what the dynamic
// programs of the others ran and loaded from keyroot entries. cells/view
// is the size of the unbounded dynamic program, from the shapes alone —
// what a cutoff has to beat; gated/view is the share of views rung 0 ends
// before it.
func BenchmarkBoundedView(b *testing.B) {
	q, views := boundedFixture(b)
	cells := 0
	for _, v := range views {
		cells += relevantNodes(q.LMLs(), q.Keyroots()) * relevantNodes(v.LMLs(), v.Keyroots())
	}
	for _, cutoff := range []float64{6, 8, 12, math.Inf(1)} {
		b.Run(fmt.Sprintf("cutoff=%g", cutoff), func(b *testing.B) {
			c := NewComputer(cost.Unit{}, q)
			gated, hits := 0, 0
			pairs, loaded := c.pairs, c.keyrootHits
			for _, v := range views { // also grows the scratch
				switch _, o, hit := c.EvaluateView(v, cutoff); {
				case o == Gated:
					gated++
				case hit:
					hits++
				}
			}
			pairs, loaded = c.pairs-pairs, c.keyrootHits-loaded
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.memo.Reset()
				for _, v := range views {
					c.EvaluateView(v, cutoff)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(views)), "ns/view")
			b.ReportMetric(float64(cells)/float64(len(views)), "cells/view")
			b.ReportMetric(float64(gated)/float64(len(views)), "gated/view")
			b.ReportMetric(float64(hits)/float64(len(views)), "hits/view")
			b.ReportMetric(float64(pairs)/float64(len(views)), "pairs/view")
			b.ReportMetric(float64(loaded)/float64(len(views)), "keyroot-hits/view")
		})
	}
}

// BenchmarkBoundedViewMiss is the memo where a view entry cannot help: the
// fixture's views reduced to one per signature — as many as the memo
// holds — so every evaluation pays the signature write, a failed probe and
// an insert on top of its dynamic program. dp is the same pass on a
// computer without a memo; dp+miss keeps the keyroot entries, which
// distinct views still share, so the difference is the miss path's cost
// less what those save (pairs/view, keyroot-hits/view).
func BenchmarkBoundedViewMiss(b *testing.B) {
	q, all := boundedFixture(b)
	c := NewComputer(cost.Unit{}, q)
	var views []*tree.View
	for _, v := range all {
		stored := c.memo.used
		if c.EvaluateView(v, math.Inf(1)); c.memo.used > stored { // a signature not seen before, and room for it
			views = append(views, v)
		}
	}
	for _, memoised := range []bool{false, true} {
		name := "dp"
		if memoised {
			name = "dp+miss"
		}
		b.Run(name, func(b *testing.B) {
			c := NewComputer(cost.Unit{}, q)
			mm := c.memo
			c.memo = nil
			for _, v := range views {
				c.EvaluateView(v, 8) // grows the scratch
			}
			b.ResetTimer()
			pairs, loaded := c.pairs, c.keyrootHits
			for i := 0; i < b.N; i++ {
				if memoised {
					mm.Reset()
					c.memo = mm
				}
				for _, v := range views {
					if _, _, hit := c.EvaluateView(v, 8); hit {
						b.Fatal("a view of the distinct set hit the memo")
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(views)), "ns/view")
			b.ReportMetric(float64(len(views)), "views")
			b.ReportMetric(float64(c.pairs-pairs)/float64(b.N*len(views)), "pairs/view")
			b.ReportMetric(float64(c.keyrootHits-loaded)/float64(b.N*len(views)), "keyroot-hits/view")
		})
	}
}
