package ted

import (
	"math"
	"math/rand"
	"testing"

	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/race"
	"tasm/internal/tree"
)

// TestBoundedExactBelowCutoff is the contract of the bounded evaluation,
// checked over many random tree pairs and cutoffs: every row entry whose
// true distance is at or below the cutoff must be exact, and every other
// entry must be +Inf (it must never dip to or below the cutoff, which
// would let a wrong entry into a ranking).
func TestBoundedExactBelowCutoff(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(42))
	fw, err := cost.NewFanoutWeighted(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []cost.Model{cost.Unit{}, fw} {
		for iter := 0; iter < 200; iter++ {
			q := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(12), MaxFanout: 3, Labels: 5})
			doc := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(40), MaxFanout: 4, Labels: 5})
			v := viewOf(t, doc)

			exactC := NewComputer(m, q)
			exact := append([]float64(nil), exactC.SubtreeDistancesView(v)...)

			// Cutoffs below, at, around and above the true distances.
			maxD := 0.0
			for _, x := range exact {
				if x > maxD {
					maxD = x
				}
			}
			cutoffs := []float64{0, exact[len(exact)-1], maxD / 2, maxD, maxD + 1}
			for _, cutoff := range cutoffs {
				boundedC := NewComputer(m, q)
				got, _ := boundedC.SubtreeDistancesViewBounded(v, cutoff)
				for j := range exact {
					if exact[j] <= cutoff && got[j] != exact[j] {
						t.Fatalf("iter %d cutoff %g: row[%d] = %g, want exact %g", iter, cutoff, j, got[j], exact[j])
					}
					if exact[j] > cutoff && !math.IsInf(got[j], 1) {
						t.Fatalf("iter %d cutoff %g: row[%d] = %g, want +Inf: true distance %g exceeds the cutoff", iter, cutoff, j, got[j], exact[j])
					}
				}
			}
		}
	}
}

// TestBoundedReusedComputerNoStaleRows: a computer alternating bounded
// (gated, aborting) and exact evaluations must never leak a sentinel or a
// stale value from one run into a later one through td, which bounded
// runs prefill.
func TestBoundedReusedComputerNoStaleRows(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(7))
	q := tree.Random(d, rng, tree.RandomConfig{Nodes: 10, MaxFanout: 3, Labels: 4})
	c := NewComputer(cost.Unit{}, q)
	oracle := NewComputer(cost.Unit{}, q)
	for iter := 0; iter < 100; iter++ {
		doc := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(50), MaxFanout: 4, Labels: 4})
		v := viewOf(t, doc)
		exact := append([]float64(nil), oracle.SubtreeDistancesView(v)...)
		// Aggressive cutoffs cut nearly everything short...
		c.SubtreeDistancesViewBounded(v, float64(iter%4))
		// ...after which an unbounded run on the same computer must be
		// exact everywhere...
		got := c.SubtreeDistancesView(v)
		for j := range exact {
			if got[j] != exact[j] {
				t.Fatalf("iter %d: row[%d] = %g after aborted run, want %g", iter, j, got[j], exact[j])
			}
		}
		// ...and so must a bounded one below its (other) cutoff.
		cutoff := float64(2 + iter%5)
		got, _ = c.SubtreeDistancesViewBounded(v, cutoff)
		for j := range exact {
			if exact[j] <= cutoff && got[j] != exact[j] {
				t.Fatalf("iter %d cutoff %g: row[%d] = %g after an unbounded run, want %g", iter, cutoff, j, got[j], exact[j])
			}
		}
	}
}

// TestBoundedAbortReported: with an impossible cutoff the evaluation must
// be cut short (on any document larger than the query's reach) and report
// it, by the rung that ended it.
func TestBoundedAbortReported(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(3))
	q := tree.Random(d, rng, tree.RandomConfig{Nodes: 8, MaxFanout: 3, Labels: 3})
	doc := tree.Random(d, rng, tree.RandomConfig{Nodes: 60, MaxFanout: 4, Labels: 3})
	v := viewOf(t, doc)
	c := NewComputer(cost.Unit{}, q)
	row, aborted := c.SubtreeDistancesViewBounded(v, 0)
	if !aborted {
		t.Error("cutoff 0 on a 60-node document: expected an abort")
	}
	// The whole document cannot match an 8-node query at distance 0.
	if !(row[len(row)-1] > 0) {
		t.Errorf("root distance %g under cutoff 0, want > 0", row[len(row)-1])
	}
	if _, aborted := c.SubtreeDistancesViewBounded(v, math.Inf(1)); aborted {
		t.Error("infinite cutoff must never abort")
	}
	// The 60-node document holds the query's three labels, so its label
	// bag cannot end the evaluation: it is the DP that aborts. (On a fresh
	// computer: c has by now evaluated v unbounded, and would answer from
	// that row — TestMemoHitReportsRecordedOutcome.)
	if _, o, hit := NewComputer(cost.Unit{}, q).EvaluateView(v, 0); o != Aborted || hit {
		t.Errorf("cutoff 0 on a document sharing the query's labels: outcome %d (memo hit %v), want Aborted by the DP", o, hit)
	}
	// ...whereas a view of foreign labels never reaches the DP.
	foreign := viewOf(t, tree.MustParse(d, "{x{y}{z}}"))
	row, o, _ := c.EvaluateView(foreign, 7)
	if o != Gated {
		t.Errorf("foreign-label view under cutoff 7 < |Q|: outcome %d, want Gated", o)
	}
	for j, x := range row {
		if !math.IsInf(x, 1) {
			t.Errorf("gated row[%d] = %g, want +Inf", j, x)
		}
	}
	if _, o, _ := c.EvaluateView(foreign, 8); o != Completed {
		t.Errorf("cutoff |Q| admits deleting the whole query: outcome %d, want Completed", o)
	}
}

// TestCutoffEdgeCases: every float64 is a legal cutoff, under the integer
// and the float kernel alike. NaN and +Inf are unbounded; a negative
// cutoff gates everything; a fractional one is exact at and below itself;
// one beyond int32 — or beyond any distance — is unbounded in effect.
func TestCutoffEdgeCases(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(5))
	fw, err := cost.NewFanoutWeighted(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := cost.NewPerLabel(map[string]float64{"l0": 1.25, "l1": 3}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cutoff  float64
		outcome Outcome // checked when exact is set or the cutoff is negative
		exact   bool    // the whole row must equal the unbounded one
	}{
		{"NaN", math.NaN(), Completed, true},
		{"+Inf", math.Inf(1), Completed, true},
		{"MaxFloat64", math.MaxFloat64, Completed, true},
		{"2^31", 1 << 31, Completed, true},
		{"2^62", 1 << 62, Completed, true},
		{"-Inf", math.Inf(-1), Gated, false},
		{"-1", -1, Gated, false},
		{"-0.25", -0.25, Gated, false},
		{"0", 0, 0, false},
		{"0.75", 0.75, 0, false},
		{"2.5", 2.5, 0, false},
		{"7.999", 7.999, 0, false},
	}
	for _, m := range []cost.Model{cost.Unit{}, fw, pl} {
		for iter := 0; iter < 40; iter++ {
			q := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(10), MaxFanout: 3, Labels: 4})
			v := viewOf(t, tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(30), MaxFanout: 4, Labels: 4}))
			exact := append([]float64(nil), NewComputer(m, q).SubtreeDistancesView(v)...)
			c := NewComputer(m, q)
			for _, tc := range cases {
				got, o, _ := c.EvaluateView(v, tc.cutoff)
				if (tc.exact || tc.cutoff < 0) && o != tc.outcome {
					t.Fatalf("%T iter %d cutoff %s: outcome %d, want %d", m, iter, tc.name, o, tc.outcome)
				}
				for j := range exact {
					want := exact[j]
					if !tc.exact && !(exact[j] <= tc.cutoff) {
						want = math.Inf(1)
					}
					if got[j] != want {
						t.Fatalf("%T iter %d cutoff %s: row[%d] = %g, want %g (true distance %g)", m, iter, tc.name, j, got[j], want, exact[j])
					}
				}
			}
		}
	}
}

// TestBoundedNoSentinelOverflow: a τ-sized view (|Q| = 16, k = 50) whose
// label bag contains the query's, so no gate fires, evaluated at cutoffs
// from 0 — where nearly every tree distance stays a sentinel and deep
// views add forest distances to it — to |Q|+n. An overflowing int32 sum
// would wrap negative and surface as a wrong entry below the cutoff.
func TestBoundedNoSentinelOverflow(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 20; iter++ {
		q := tree.Random(d, rng, tree.RandomConfig{Nodes: 16, MaxFanout: 3, Labels: 2})
		doc := tree.Random(d, rng, tree.RandomConfig{Nodes: 82, MaxFanout: 1 + iter%4, Labels: 2})
		v := viewOf(t, doc)
		exact := append([]float64(nil), NewComputer(cost.Unit{}, q).SubtreeDistancesView(v)...)
		c := NewComputer(cost.Unit{}, q)
		m, n := q.Size(), doc.Size()
		for _, cutoff := range []float64{0, 1, 2, float64(m), float64(n), float64(m + n - 1), float64(m + n)} {
			got, _, _ := c.EvaluateView(v, cutoff)
			for j := range exact {
				want := exact[j]
				if want > cutoff {
					want = math.Inf(1)
				}
				if got[j] != want {
					t.Fatalf("iter %d cutoff %g: row[%d] = %g, want %g", iter, cutoff, j, got[j], want)
				}
			}
		}
	}
}

// TestBoundedViewZeroAlloc: every way a bounded evaluation can end shares
// the unbounded path's steady-state zero-allocation contract — rejected
// by the gate, aborted by the row minimum in the integer and in the float
// kernel, answered from the memo's view entry, and computed with keyroot
// columns loaded from the memo. A repeated evaluation under cost.Unit is a
// view hit reporting the outcome its row was computed with, so the integer
// kernel's abort is repeated on a computer whose memo is taken away, and
// the keyroot path on one whose table is too full to store the repeated
// view but holds the keyroots of the same document evaluated alone.
func TestBoundedViewZeroAlloc(t *testing.T) {
	d := dict.New()
	rng := rand.New(rand.NewSource(11))
	q := tree.Random(d, rng, tree.RandomConfig{Nodes: 12, MaxFanout: 3, Labels: 6})
	doc := tree.Random(d, rng, tree.RandomConfig{Nodes: 80, MaxFanout: 4, Labels: 6})
	v := viewOf(t, doc)
	grafted := viewOf(t, tree.FromNode(d, tree.NewNode("r", tree.NewNode("z"), doc.Node(doc.Root())))) // doc behind a left sibling
	foreign := viewOf(t, tree.MustParse(d, "{x{y}{z}}"))
	fw, err := cost.NewFanoutWeighted(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	unit, float, bare, keyed := NewComputer(cost.Unit{}, q), NewComputer(fw, q), NewComputer(cost.Unit{}, q), NewComputer(cost.Unit{}, q)
	bare.memo = nil
	keyed.EvaluateView(v, 1)
	fillTable(t, keyed)
	type path struct {
		name string
		c    *Computer
		v    *tree.View
		want Outcome
		hit  bool
	}
	paths := []path{
		{"gated", unit, foreign, Gated, false},
		{"memo-hit", unit, v, Aborted, true}, // the first evaluation aborts in the DP and stores that
		{"aborted-int", bare, v, Aborted, false},
		{"keyroot-hit", keyed, grafted, Aborted, false},
		{"gated-float", float, foreign, Gated, false},
		{"aborted-float", float, v, Aborted, false},
	}
	for _, p := range paths {
		cutoff := 1.0
		if p.v == foreign {
			cutoff = 3
		}
		p.c.EvaluateView(p.v, cutoff) // grows the scratch, warms the path
		loaded := p.c.keyrootHits
		if _, o, hit := p.c.EvaluateView(p.v, cutoff); o != p.want || hit != p.hit {
			t.Fatalf("%s: outcome %d (memo hit %v), want %d (%v)", p.name, o, hit, p.want, p.hit)
		}
		if loaded := p.c.keyrootHits - loaded; (p.c == keyed) != (loaded > 0) {
			t.Fatalf("%s: %d keyroots loaded from the memo", p.name, loaded)
		}
		if race.Enabled {
			continue // allocation counts are not meaningful under -race
		}
		if allocs := testing.AllocsPerRun(100, func() { p.c.EvaluateView(p.v, cutoff) }); allocs != 0 {
			t.Errorf("%s: EvaluateView allocates %.1f objects per call in steady state, want 0", p.name, allocs)
		}
	}
}
