package prb_test

// In an external test package because it checks the bound against
// internal/ted, which itself imports prb for the same histogram.

import (
	"math/rand"
	"testing"

	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/prb"
	"tasm/internal/ted"
	"tasm/internal/tree"
)

// TestCandidateBoundIsLowerBound: the bound must never exceed the true
// tree edit distance of ANY subtree of the candidate — the property the
// pruning pipeline's first gate relies on.
func TestCandidateBoundIsLowerBound(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 30; iter++ {
		q := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(8), MaxFanout: 3, Labels: 4})
		doc := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(80), MaxFanout: 4, Labels: 4})
		tau := 1 + rng.Intn(16)
		hist := prb.NewLabelHist(q)
		comp := ted.NewComputer(cost.Unit{}, q)
		buf := prb.New(postorder.NewSliceQueue(postorder.Items(doc)), tau)
		for {
			ok, err := buf.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			bound := hist.CandidateBound(buf, buf.Leaf(), buf.Root())
			sub, err := buf.Subtree(d, buf.Leaf(), buf.Root())
			if err != nil {
				t.Fatal(err)
			}
			row := comp.SubtreeDistances(sub)
			for j, dist := range row {
				if float64(bound) > dist {
					t.Fatalf("iter %d candidate [%d,%d] subtree %d: bound %d exceeds true distance %g",
						iter, buf.Leaf(), buf.Root(), j, bound, dist)
				}
			}
		}
	}
}
