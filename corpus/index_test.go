package corpus

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tasm/internal/dict"
	"tasm/internal/pqgram"
	"tasm/internal/tree"
)

// FuzzProfileIndex pins the profile index against profiles recomputed
// from each document's tree. A fuzz input is a sequence of corpus
// operations over small random documents — ingest, remove, flip a byte of
// a store and reopen (the document is quarantined), plain reopen — so the
// index is carried through every kind of publish and rebuilt by Open.
// After each step whose op byte has bit 3 clear (a set bit lets the next
// commit start from an index no query has built yet), for random batches
// of queries with repeated labels, labels only the request overlay knows
// and random document selections, every (pq-gram distance, label bound,
// label nodes) the plan reads equals what pqgram.Distance and a
// per-document map walk compute from the document's tree re-interned
// under the snapshot's base (pqgram.New and countLabels), and the plan's
// scan order is the order those values give. The plan is pooled across
// the whole sequence, as a corpus pools it.
func FuzzProfileIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 6, 0, 3, 7, 1})
	f.Add([]byte{0, 1, 2, 5, 0, 4, 6, 3, 7, 2})
	f.Add([]byte{6, 6, 6, 5, 5, 7, 3, 3, 0, 4, 1})
	f.Add([]byte{7, 3, 4, 5}) // every operation on an empty corpus
	f.Add([]byte{8, 9, 10, 14, 0, 11, 10, 9, 3, 8, 13, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		dir := t.TempDir()
		open := func() *Corpus {
			c, err := Open(dir, WithLogger(quietLogger()))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		c := open()
		var p queryPlan
		trees := map[string]*tree.Tree{} // every document ever ingested, by name
		for step, op := range ops {
			rng := rand.New(rand.NewSource(int64(step)<<8 | int64(op)))
			docs, _ := c.Docs(context.Background()) // a local listing never fails
			var victim DocInfo
			if len(docs) > 0 {
				victim = docs[rng.Intn(len(docs))]
			}
			switch op % 8 {
			case 0, 1, 2, 6:
				name := fmt.Sprintf("d%d", step)
				trees[name] = tree.Random(dict.New(), rng, tree.RandomConfig{Nodes: 1 + rng.Intn(14), MaxFanout: 3, Labels: 5})
				if _, err := c.AddTree(name, trees[name]); err != nil {
					t.Fatal(err)
				}
			case 3:
				if len(docs) > 0 {
					if err := c.Remove(victim.Name); err != nil {
						t.Fatal(err)
					}
				}
			case 4:
				if len(docs) > 0 {
					path := filepath.Join(dir, victim.Store)
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					c = open()
					if c.Len() != len(docs)-1 {
						t.Fatalf("step %d: flipping a byte of %s left %d of %d documents", step, victim.Store, c.Len(), len(docs))
					}
				}
			case 5, 7:
				c = open()
			}
			if op&0x08 != 0 {
				continue // no query: the next commit starts from an unbuilt index
			}
			for range 3 {
				checkPlan(t, c, &p, rng, trees)
			}
		}
	})
}

// treeProfile is the oracle's profile of one document: its pq-gram
// profile and its label histogram, keyed by base-dictionary id, both
// computed from the document's tree re-interned under base.
func treeProfile(t *testing.T, c *Corpus, base *dict.Base, tr *tree.Tree) (*pqgram.Profile, map[int]int) {
	t.Helper()
	tr = tr.Reintern(dict.NewOverlay(base))
	grams, err := pqgram.New(tr, c.p, c.q)
	if err != nil {
		t.Fatal(err)
	}
	ids, counts := countLabels(tr.LabelIDs(), nil, nil)
	labels := make(map[int]int, len(ids))
	for i, id := range ids {
		if id >= int32(base.Len()) {
			t.Fatalf("label %q of a document is not in the corpus dictionary", tr.Dict().Label(int(id)))
		}
		labels[int(id)] = int(counts[i])
	}
	return grams, labels
}

// mapLabelBound is the per-document map walk the profile index replaced,
// kept as its oracle: Σ_label max(0, count_Q − count_doc) and
// Σ_label count_doc over the query's distinct labels.
func mapLabelBound(query, doc map[int]int) (bound float64, labelNodes int) {
	missing := 0
	for id, cq := range query {
		cd := doc[id]
		if cq > cd {
			missing += cq - cd
		}
		labelNodes += cd
	}
	return float64(missing), labelNodes
}

// checkPlan plans a random batch of queries over c's snapshot into p and
// compares every value the plan reads, and its order, with the oracle.
func checkPlan(t *testing.T, c *Corpus, p *queryPlan, rng *rand.Rand, trees map[string]*tree.Tree) {
	t.Helper()
	st := c.snapshot()
	// Documents use labels l0…l4; l5 and l6 are known to the overlay only.
	queries := make([]*tree.Tree, 1+rng.Intn(3))
	for i := range queries {
		queries[i] = tree.Random(dict.New(), rng, tree.RandomConfig{Nodes: 1 + rng.Intn(8), MaxFanout: 3, Labels: 7})
	}
	_, qs := requestOverlay(st, queries)
	var cfg QueryConfig
	if rng.Intn(3) == 0 {
		cfg.Docs = []string{}
		for _, d := range st.docs {
			if rng.Intn(2) == 0 {
				cfg.Docs = append(cfg.Docs, d.Name)
			}
		}
	}
	if err := c.plan(st, qs, &cfg, p); err != nil {
		t.Fatal(err)
	}

	qGrams := make([]*pqgram.Profile, len(qs))
	qLabels := make([]map[int]int, len(qs))
	for i, q := range qs {
		g, err := pqgram.New(q, c.p, c.q)
		if err != nil {
			t.Fatal(err)
		}
		qGrams[i], qLabels[i] = g, map[int]int{}
		for _, id := range q.LabelIDs() {
			qLabels[i][id]++
		}
	}
	type entry struct {
		slot       int
		pqdist     int
		bound      float64
		bounds     []float64
		labelNodes []int
	}
	var want []entry
	for slot, d := range st.docs {
		if cfg.Docs != nil && !slices.Contains(cfg.Docs, d.Name) {
			continue
		}
		e := entry{slot: slot, pqdist: math.MaxInt, bound: math.Inf(1), bounds: make([]float64, len(qs)), labelNodes: make([]int, len(qs))}
		grams, labels := treeProfile(t, c, st.base, trees[d.Name])
		for i := range qs {
			pqd, err := pqgram.Distance(qGrams[i], grams)
			if err != nil {
				t.Fatal(err)
			}
			e.bounds[i], e.labelNodes[i] = mapLabelBound(qLabels[i], labels)
			e.pqdist, e.bound = min(e.pqdist, pqd), min(e.bound, e.bounds[i])
		}
		want = append(want, e)
	}
	slices.SortFunc(want, func(a, b entry) int {
		if c := cmp.Compare(a.pqdist, b.pqdist); c != 0 {
			return c
		}
		if c := cmp.Compare(a.bound, b.bound); c != 0 {
			return c
		}
		return cmp.Compare(st.docs[a.slot].ID, st.docs[b.slot].ID)
	})

	if len(p.docs) != len(want) {
		t.Fatalf("plan holds %d documents, want %d", len(p.docs), len(want))
	}
	for k, w := range want {
		got := p.docs[k]
		name := st.docs[w.slot].Name
		if got.slot != w.slot || got.info.ID != st.docs[w.slot].ID {
			t.Fatalf("scan position %d holds %s (%d %g), want %s (%d %g)", k, got.info.Name, got.pqdist, got.bound, name, w.pqdist, w.bound)
		}
		if got.pqdist != w.pqdist || got.bound != w.bound {
			t.Fatalf("document %s: plan reads pqdist %d bound %g, oracle %d %g", name, got.pqdist, got.bound, w.pqdist, w.bound)
		}
		row := w.slot * len(qs)
		if !slices.Equal(p.bounds[row:row+len(qs)], w.bounds) {
			t.Fatalf("document %s: plan bounds %v, oracle %v", name, p.bounds[row:row+len(qs)], w.bounds)
		}
		if !slices.Equal(p.labelNodes[row:row+len(qs)], w.labelNodes) {
			t.Fatalf("document %s: plan label nodes %v, oracle %v", name, p.labelNodes[row:row+len(qs)], w.labelNodes)
		}
	}

	// The index only orders and skips: answers equal the unfiltered scan's.
	opts := []QueryOption{WithDocs(cfg.Docs...)}
	if cfg.Docs == nil {
		opts = nil
	}
	got, err := c.TopKBatch(context.Background(), qs, 3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := c.TopKBatch(context.Background(), qs, 3, append(opts, WithoutFilter())...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if fmt.Sprint(matchKeys(got[i])) != fmt.Sprint(matchKeys(exhaustive[i])) {
			t.Fatalf("query %d: filtered %v, exhaustive %v", i, matchKeys(got[i]), matchKeys(exhaustive[i]))
		}
	}
}

// matchKeys reduces matches to what identifies them.
func matchKeys(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("%s:%d:%g", m.Doc.Name, m.Pos, m.Dist)
	}
	return out
}
