// Scalability comparison on XMark-style documents — the workload of the
// paper's Section VII-A: queries are randomly chosen subtrees of an
// auction-site document, and TASM-postorder is compared against the
// TASM-dynamic baseline as the document grows.
//
//	go run ./examples/xmark
//
// TASM-dynamic computes one huge dynamic program over the whole document
// (O(|Q|·|T|) memory); TASM-postorder streams the document through a
// prefix ring buffer and only ever scores subtrees within the τ bound.
// Both produce the same ranking.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"tasm"
	"tasm/internal/datagen"
)

func main() {
	const k = 5
	for _, scale := range []int{1, 2, 4} {
		m := tasm.New()
		doc, err := m.BuildTree(datagen.XMark(scale).Queue(m.Dict(), 7))
		if err != nil {
			log.Fatal(err)
		}

		// The paper's query workload: a randomly chosen 16-node subtree
		// of the document itself.
		rng := rand.New(rand.NewSource(7))
		query, err := datagen.QueryFromDocument(doc, rng, 16)
		if err != nil {
			log.Fatal(err)
		}

		start := time.Now()
		dyn, err := m.TopKDynamic(query, doc, k)
		if err != nil {
			log.Fatal(err)
		}
		tDyn := time.Since(start)

		start = time.Now()
		pos, err := m.TopK(context.Background(), query, doc, k)
		if err != nil {
			log.Fatal(err)
		}
		tPos := time.Since(start)

		fmt.Printf("scale %d: %d nodes, height %d, |Q|=%d, τ=%d\n",
			scale, doc.Size(), doc.Height(), query.Size(), m.Tau(query, k))
		fmt.Printf("  TASM-dynamic   %8v   best distances: %v\n", tDyn.Round(time.Millisecond), dists(dyn))
		fmt.Printf("  TASM-postorder %8v   best distances: %v\n", tPos.Round(time.Millisecond), dists(pos))
		for i := range dyn {
			if dyn[i].Dist != pos[i].Dist {
				log.Fatalf("rankings disagree at rank %d", i)
			}
		}
		fmt.Println("  rankings agree ✓")
	}
}

func dists(ms []tasm.Match) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Dist
	}
	return out
}
