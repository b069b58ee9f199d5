package corpus_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"tasm/corpus"
	"tasm/internal/datagen"
	"tasm/internal/dict"
	"tasm/internal/tree"
)

// BenchmarkWorkers times a corpus query whose document scans are split
// into w ranges (WithWorkers; w = 0 is the sequential scan) on two
// fixtures: one XMark(4) document, generated as the root package's
// benchmarks generate it (seed 1), and 4 × XMark(1), the corpus the
// serving benchmark's leaves hold at seed 1 (seeds 1000–1003). Queries are
// |Q|-node subtrees of the fixture's first document, and trees are not
// materialized.
//
//	go test -run='^$' -bench=Workers -cpu=2 ./corpus
func BenchmarkWorkers(b *testing.B) {
	ctx := context.Background()
	for _, fx := range []struct {
		name string
		ds   *datagen.Dataset
		docs int
		seed int64 // of the first document; the others count up from it
	}{
		{"xmark4", datagen.XMark(4), 1, 1},
		{"4xmark1", datagen.XMark(1), 4, 1000},
	} {
		c, err := corpus.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		var first *tree.Tree
		for i := 0; i < fx.docs; i++ {
			doc, err := fx.ds.Tree(dict.New(), fx.seed+int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.AddTree(fmt.Sprintf("%s-%d", fx.name, i), doc); err != nil {
				b.Fatal(err)
			}
			if first == nil {
				first = doc
			}
		}
		for _, size := range []int{12, 16, 32} {
			q, err := datagen.QueryFromDocument(first, rand.New(rand.NewSource(int64(size))), size)
			if err != nil {
				b.Fatal(err)
			}
			if q, err = c.ImportTree(q); err != nil {
				b.Fatal(err)
			}
			for _, k := range []int{5, 50} {
				for _, w := range []int{0, 2, 4} {
					b.Run(fmt.Sprintf("%s/q=%d/k=%d/w=%d", fx.name, size, k, w), func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							if _, err := c.TopK(ctx, q, k, corpus.WithoutTrees(), corpus.WithWorkers(w)); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkMixedTau times queries at many thresholds over one corpus, the
// traffic a per-document candidate cache of two slots serves worst: 4 ×
// XMark(1) (the serving benchmark's leaf corpus at seed 1), four queries
// of each size |Q| ∈ {4, 8, 16} drawn from its first document, each asked
// at k ∈ {1, 5, 50} — nine values of τ = 2|Q| + k, seven of which find
// both slots of every document taken by the first two. It reports the
// time per query and logs a digest of every answer, trees included, so
// that two builds can be shown to answer byte for byte alike.
//
//	go test -run='^$' -bench=MixedTau -benchtime=20x ./corpus
func BenchmarkMixedTau(b *testing.B) {
	ctx := context.Background()
	c, err := corpus.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	var first *tree.Tree
	for i := 0; i < 4; i++ {
		doc, err := datagen.XMark(1).Tree(dict.New(), 1000+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.AddTree(fmt.Sprintf("xmark-%d", i), doc); err != nil {
			b.Fatal(err)
		}
		if first == nil {
			first = doc
		}
	}
	type query struct {
		q *tree.Tree
		k int
	}
	var queries []query
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{4, 8, 16} {
		for range 4 {
			q, err := datagen.QueryFromDocument(first, rng, size)
			if err != nil {
				b.Fatal(err)
			}
			if q, err = c.ImportTree(q); err != nil {
				b.Fatal(err)
			}
			for _, k := range []int{1, 5, 50} {
				queries = append(queries, query{q, k})
			}
		}
	}
	digest := sha256.New()
	for _, q := range queries {
		ms, err := c.TopK(ctx, q.q, q.k)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range ms {
			fmt.Fprintf(digest, "%s:%d:%g:%d:%s;", m.Doc.Name, m.Pos, m.Dist, m.Size, m.Tree)
		}
	}
	b.Logf("%d queries, answers sha256 %x", len(queries), digest.Sum(nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := c.TopK(ctx, q.q, q.k, corpus.WithoutTrees()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries))/1e3, "µs/query")
}
