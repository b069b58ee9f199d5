package ted

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/tree"
)

// FuzzBoundedVsReference pins the bounded evaluation to the independent
// recursive oracle under the unit model and two weighted ones (dyadic
// costs, so float sums are exact whatever their order). One input is a
// sequence of evaluations on ONE computer, so the memo in front of the
// dynamic program is part of what is pinned: the views are a random
// document, its exact duplicate and near-duplicates (nearDuplicates), drawn
// with repetition, under cutoffs that tighten, loosen again behind the
// memo's back, and take every degenerate value. After every evaluation,
// every returned entry at or below the cutoff is bit-equal to
// ReferenceDistance, every other entry is +Inf and its true distance is
// above the cutoff, a gated view has no subtree at or below the cutoff,
// and rung 0's label-bag bound of the view is a lower bound on the
// distance to every one of its subtrees.
func FuzzBoundedVsReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint16(8), uint8(0))
	f.Add(int64(2), uint8(6), uint8(8), uint16(0), uint8(0))
	f.Add(int64(3), uint8(5), uint8(9), uint16(13), uint8(1))
	f.Add(int64(4), uint8(1), uint8(1), uint16(3), uint8(2))
	f.Add(int64(5), uint8(6), uint8(2), uint16(21), uint8(2))
	f.Add(int64(6), uint8(4), uint8(7), uint16(65535), uint8(1))
	fw, err := cost.NewFanoutWeighted(0.5, 3)
	if err != nil {
		f.Fatal(err)
	}
	pl, err := cost.NewPerLabel(map[string]float64{"l0": 1.25, "l1": 3}, 1.5)
	if err != nil {
		f.Fatal(err)
	}
	models := []cost.Model{cost.Unit{}, fw, pl}
	f.Fuzz(func(t *testing.T, seed int64, qRaw, tRaw uint8, cutoffRaw uint16, modelSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		d := dict.New()
		cfg := tree.RandomConfig{Nodes: int(qRaw)%6 + 1, MaxFanout: 3, Labels: 3}
		q := tree.Random(d, rng, cfg)
		cfg.Nodes = int(tRaw)%9 + 1
		doc := tree.Random(d, rng, cfg)
		m := models[int(modelSel)%len(models)]
		cutoff := float64(cutoffRaw) / 4 // quarter steps: fractional cutoffs included
		if cutoffRaw == math.MaxUint16 {
			cutoff = math.Inf(1)
		}

		docs := append([]*tree.Tree{doc, doc}, nearDuplicates(d, rng, q, doc)...)
		views := make([]*tree.View, len(docs))
		refs := make([][]float64, len(docs)) // δ(Q, T_j) per document, computed on first use
		for i, dc := range docs {
			views[i] = viewOf(t, dc)
		}
		c := NewComputer(m, q)
		for step := 0; step < 3*len(docs); step++ {
			i := rng.Intn(len(docs))
			if step == 0 {
				i = 0 // the input's own (Q, T, cutoff) comes first, as it always has
			}
			if refs[i] == nil {
				refs[i] = make([]float64, docs[i].Size())
				for j := range refs[i] {
					refs[i][j] = ReferenceDistance(m, q, docs[i].Subtree(j))
				}
			}
			bound := c.hist.Signature(views[i].LabelIDs(), views[i].Sizes(), nil)
			row, outcome, _ := c.EvaluateView(views[i], cutoff)
			if !(cutoff < math.Inf(1)) {
				cutoff = math.Inf(1) // NaN is unbounded too
			}
			for j, ref := range refs[i] {
				if float64(bound) > ref {
					t.Fatalf("step %d: label-bag bound %d of the view exceeds δ(Q, T_%d) = %g", step, bound, j, ref)
				}
				switch {
				case ref <= cutoff && row[j] != ref:
					t.Fatalf("step %d, %s, cutoff %g: row[%d] = %g, want exactly %g", step, docs[i], cutoff, j, row[j], ref)
				case ref > cutoff && !math.IsInf(row[j], 1):
					t.Fatalf("step %d, %s, cutoff %g: row[%d] = %g, want +Inf (true distance %g)", step, docs[i], cutoff, j, row[j], ref)
				}
				if outcome == Gated && ref <= cutoff {
					t.Fatalf("step %d, cutoff %g: view gated although δ(Q, T_%d) = %g", step, cutoff, j, ref)
				}
			}
			// The next cutoff: mostly tightening, as a scan's k-th distance
			// does; sometimes looser than anything a stored row was computed
			// under; sometimes degenerate.
			switch r := rng.Intn(10); {
			case r < 5 && cutoff < math.Inf(1):
				cutoff -= float64(rng.Intn(5)) / 4
			case r < 7:
				cutoff += float64(1+rng.Intn(24)) / 4
			case r == 7:
				cutoff = math.Inf(1)
			case r == 8:
				cutoff = math.NaN()
			default:
				cutoff = float64(rng.Intn(12)) - 2
			}
		}
	})
}

// nearDuplicates returns variations of doc that differ from it in exactly
// one respect the memo's signature must — or must not — tell apart: one
// label swapped between a query label and a foreign one (same shape,
// different signature), one foreign label swapped for another foreign one
// (a different tree with the same signature, which must share doc's row),
// and the children of one node reversed (same labels, different shape).
// Then doc with one random subtree grafted under a random parent at a
// random sibling position, twice, and both grafts in one tree: views that
// share the keyroots inside the graft — and its root, behind a sibling —
// at other offsets and depths, which the memo's keyroot entries must
// serve from the one signature slice that covers exactly the graft.
func nearDuplicates(d dict.Dict, rng *rand.Rand, q, doc *tree.Tree) []*tree.Tree {
	inQuery := map[string]bool{}
	for i := 0; i < q.Size(); i++ {
		inQuery[q.Label(i)] = true
	}
	// node returns the pointer form of doc and its nodes in preorder.
	node := func() (*tree.Node, []*tree.Node) {
		root := doc.Node(doc.Root())
		var all []*tree.Node
		var walk func(*tree.Node)
		walk = func(n *tree.Node) {
			all = append(all, n)
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(root)
		return root, all
	}
	var out []*tree.Tree

	root, all := node()
	if n := all[rng.Intn(len(all))]; inQuery[n.Label] {
		n.Label = "foreign-a"
	} else {
		n.Label = q.Label(rng.Intn(q.Size()))
	}
	out = append(out, tree.FromNode(d, root))

	root, all = node()
	for _, n := range all {
		if !inQuery[n.Label] {
			n.Label = "foreign-b"
			out = append(out, tree.FromNode(d, root))
			break
		}
	}

	root, all = node()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, n := range all {
		if len(n.Children) > 1 {
			for i, j := 0, len(n.Children)-1; i < j; i, j = i+1, j-1 {
				n.Children[i], n.Children[j] = n.Children[j], n.Children[i]
			}
			out = append(out, tree.FromNode(d, root))
			break
		}
	}

	g := tree.Random(d, rng, tree.RandomConfig{Nodes: 2 + rng.Intn(4), MaxFanout: 2, Labels: 3})
	graft := func(all []*tree.Node) {
		p := all[rng.Intn(len(all))]
		p.Children = slices.Insert(p.Children, rng.Intn(len(p.Children)+1), g.Node(g.Root()))
	}
	root, all = node()
	graft(all)
	out = append(out, tree.FromNode(d, root))
	root, all = node()
	graft(all)
	out = append(out, tree.FromNode(d, root))
	graft(all)
	return append(out, tree.FromNode(d, root))
}
