package corpus_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"tasm/corpus"
	"tasm/internal/core"
	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/prb"
	"tasm/internal/ranking"
	"tasm/internal/tree"
)

// recordDoc builds a bibliography-like document: a root over n records,
// each of one of eight kinds with labels of its own, so that a query
// built from one kind finds its labels on about an eighth of the nodes
// and the candidate gate reads the label postings. Records have 2 to 19
// nodes, so thresholds between those sizes locate different candidates.
func recordDoc(d dict.Dict, rng *rand.Rand, n int) *tree.Tree {
	root := tree.NewNode("bib")
	for i := 0; i < n; i++ {
		kind := rng.Intn(8)
		rec := tree.NewNode(fmt.Sprintf("rec%d", kind))
		for f := 0; f < 1+rng.Intn(6); f++ {
			field := tree.NewNode(fmt.Sprintf("f%d.%d", kind, rng.Intn(4)))
			for v := rng.Intn(3); v > 0; v-- {
				field.AddChild(tree.NewNode(fmt.Sprintf("v%d", rng.Intn(3))))
			}
			rec.AddChild(field)
		}
		root.AddChild(rec)
	}
	return tree.FromNode(d, root)
}

// naiveTopK is the exhaustive oracle over a corpus's documents, given in
// manifest order: core.Naive per document, ranked together by global
// position, rendered as the corpus's answer is by render.
func naiveTopK(t *testing.T, names []string, docs []*tree.Tree, q *tree.Tree, k int) string {
	t.Helper()
	r := ranking.New(k)
	offsets := make([]int, len(docs))
	offset := 0
	for i, doc := range docs {
		ms, err := core.Naive(q, doc, k, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			m.Pos += offset
			r.Push(m)
		}
		offsets[i] = offset
		offset += doc.Size()
	}
	var b strings.Builder
	for _, e := range r.Sorted() {
		i := len(offsets) - 1
		for offsets[i] >= e.Pos {
			i--
		}
		fmt.Fprintf(&b, "%s:%d:%g:%d:%s;", names[i], e.Pos-offsets[i], e.Dist, e.Size, e.Tree)
	}
	return b.String()
}

func render(ms []corpus.Match) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s:%d:%g:%d:%s;", m.Doc.Name, m.Pos, m.Dist, m.Size, m.Tree)
	}
	return b.String()
}

// TestCandidateCacheConcurrent: queries at one threshold τ more than a
// document's candidate cache has slots run concurrently over one corpus
// while the caches fill, so one τ always finds every slot taken. Every answer is byte-identical to the
// exhaustive oracle, the full-slot scans are counted, and once the caches
// are full no scan writes into a cached set.
func TestCandidateCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	scratch := dict.New()
	var names []string
	var docs []*tree.Tree
	for i := 0; i < 4; i++ {
		doc := recordDoc(scratch, rng, 40+rng.Intn(30))
		name := fmt.Sprintf("doc%d", i)
		if _, err := c.AddTree(name, doc); err != nil {
			t.Fatal(err)
		}
		names, docs = append(names, name), append(docs, doc)
	}

	type job struct {
		q    *tree.Tree
		k    int
		want string
	}
	var jobs []job
	// τ = 2|Q| + k under unit costs: 10, 11, … — one per slot and one more.
	for i := 0; i <= prb.CandidateSlots; i++ {
		shape := struct{ fields, k int }{3 + i%2, 2 + i - 2*(i%2)}
		for kind := 0; kind < 3; kind++ {
			var b strings.Builder
			fmt.Fprintf(&b, "{rec%d", kind)
			for f := 0; f < shape.fields; f++ {
				fmt.Fprintf(&b, "{f%d.%d}", kind, f)
			}
			b.WriteString("}")
			want := naiveTopK(t, names, docs, tree.MustParse(scratch, b.String()), shape.k)
			q, err := c.ParseBracket(b.String())
			if err != nil {
				t.Fatal(err)
			}
			if tau := core.Tau(cost.Unit{}, q, shape.k, 0); tau != 10+i {
				t.Fatalf("τ = %d for |Q| = %d, k = %d, want %d", tau, q.Size(), shape.k, 10+i)
			}
			jobs = append(jobs, job{q, shape.k, want})
		}
	}

	run := func(phase string) (misses uint64) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			order := rand.New(rand.NewSource(int64(g))).Perm(len(jobs))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range order {
					j := jobs[i]
					var stats corpus.Stats
					ms, err := c.TopK(context.Background(), j.q, j.k, corpus.WithStats(&stats))
					if err != nil {
						t.Error(err)
						return
					}
					if got := render(ms); got != j.want {
						t.Errorf("%s: %s k=%d:\n got  %s\n want %s", phase, j.q, j.k, got, j.want)
					}
					mu.Lock()
					misses += stats.CandidateSetMisses
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return misses
	}

	run("cold") // the caches fill while queries race for their slots
	for _, j := range jobs {
		if _, err := c.TopK(context.Background(), j.q, j.k); err != nil {
			t.Fatal(err) // a scanned document's free slot, if any is left, fills
		}
	}
	before := c.CandidateChecksums()
	if misses := run("warm"); misses == 0 {
		t.Errorf("no scan found every slot of its document's cache taken, with %d thresholds over %d slots", prb.CandidateSlots+1, prb.CandidateSlots)
	}
	if after := c.CandidateChecksums(); !slices.Equal(before, after) {
		t.Errorf("cached candidate sets changed under concurrent scans: %x, then %x", before, after)
	}
}
