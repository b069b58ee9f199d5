package ted

import (
	"math"
	"math/rand"
	"testing"

	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/tree"
)

// FuzzBoundedVsReference pins the bounded evaluation to the independent
// recursive oracle on random (Q, T, cutoff) under the unit model and two
// weighted ones (dyadic costs, so float sums are exact whatever their
// order): every returned entry at or below the cutoff is bit-equal to
// ReferenceDistance, every other entry is +Inf and its true distance is
// above the cutoff, and rung 0's label-bag bound of the view is a lower
// bound on the distance to every one of its subtrees.
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

		c := NewComputer(m, q)
		v := viewOf(t, doc)
		bound := float64(c.hist.BoundIDs(v.LabelIDs()))
		row, outcome := c.EvaluateView(v, cutoff)
		for j := range row {
			ref := ReferenceDistance(m, q, doc.Subtree(j))
			if bound > ref {
				t.Fatalf("label-bag bound %g of the view exceeds δ(Q, T_%d) = %g", bound, j, ref)
			}
			switch {
			case ref <= cutoff && row[j] != ref:
				t.Fatalf("cutoff %g: row[%d] = %g, want exactly %g", cutoff, j, row[j], ref)
			case ref > cutoff && !math.IsInf(row[j], 1):
				t.Fatalf("cutoff %g: row[%d] = %g, want +Inf (true distance %g)", cutoff, j, row[j], ref)
			}
			if outcome == Gated && ref <= cutoff {
				t.Fatalf("cutoff %g: view gated although δ(Q, T_%d) = %g", cutoff, j, ref)
			}
		}
	})
}
