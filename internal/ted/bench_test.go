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
// cells/view is the size of the unbounded dynamic program, from the shapes
// alone — what a cutoff has to beat; gated/view is the share of views
// rung 0 ends before it.
func BenchmarkBoundedView(b *testing.B) {
	q, views := boundedFixture(b)
	cells := 0
	for _, v := range views {
		cells += relevantNodes(q.LMLs(), q.Keyroots()) * relevantNodes(v.LMLs(), v.Keyroots())
	}
	for _, cutoff := range []float64{6, 8, 12, math.Inf(1)} {
		b.Run(fmt.Sprintf("cutoff=%g", cutoff), func(b *testing.B) {
			c := NewComputer(cost.Unit{}, q)
			gated := 0
			for _, v := range views {
				if _, o := c.EvaluateView(v, cutoff); o == Gated { // also grows the scratch
					gated++
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, v := range views {
					c.EvaluateView(v, cutoff)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(views)), "ns/view")
			b.ReportMetric(float64(cells)/float64(len(views)), "cells/view")
			b.ReportMetric(float64(gated)/float64(len(views)), "gated/view")
		})
	}
}
