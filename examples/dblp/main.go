// Duplicate detection in a bibliography — the data-cleaning scenario from
// the paper's introduction: given a (possibly dirty) bibliographic record,
// find the entries of a large DBLP-style corpus it most likely duplicates.
//
//	go run ./examples/dblp
//
// A synthetic DBLP-like corpus is generated; one of its records is copied
// and perturbed the way duplicate entries typically are (author dropped,
// title word changed, year off by one); TASM then retrieves the original
// as the closest match among thousands of records.
package main

import (
	"context"
	"fmt"
	"log"

	"tasm"
	"tasm/internal/datagen"
)

func main() {
	m := tasm.New()

	// A 5000-record bibliography (~65k nodes). In the paper this is the
	// real DBLP with 26M nodes; the generated stand-in keeps its shallow,
	// wide record shape, so the algorithm and its bounds are the same and
	// only the running time scales.
	const records = 5000
	fmt.Printf("generating %d bibliography records...\n", records)
	items, err := tasm.CollectQueue(datagen.DBLP(records).Queue(m.Dict(), 42))
	if err != nil {
		log.Fatal(err)
	}
	doc, err := m.BuildTree(tasm.NewSliceQueue(items))
	if err != nil {
		log.Fatal(err)
	}

	// Take an existing record and dirty it: this simulates the same
	// publication entered twice by different curators.
	originalPos := pickArticle(doc)
	original := doc.Subtree(originalPos)
	dirty := perturb(original.Node(original.Root()))
	query := m.FromNode(dirty)

	const k = 5
	fmt.Printf("\noriginal record (document position %d):\n    %s\n", originalPos+1, original)
	fmt.Printf("dirty duplicate used as query:\n    %s\n", query)
	fmt.Printf("query: %d nodes; τ = %d — no subtree larger than τ is ever scored\n\n",
		query.Size(), m.Tau(query, k))

	matches, err := m.TopK(context.Background(), query, doc, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("most similar existing records:")
	for i, match := range matches {
		marker := ""
		if match.Pos == originalPos+1 {
			marker = "   ← the original"
		}
		fmt.Printf("#%d  distance %.1f%s\n    %s\n", i+1, match.Dist, marker, match.Tree)
	}
}

// pickArticle returns the postorder index of a mid-corpus article record.
func pickArticle(doc *tasm.Tree) int {
	root := doc.Root()
	seen := 0
	for i := 0; i < doc.Size(); i++ {
		if doc.Parent(i) == root && doc.Label(i) == "article" {
			seen++
			if seen == 1000 {
				return i
			}
		}
	}
	log.Fatal("no article record found")
	return -1
}

// perturb dirties a record the way duplicate entries typically differ:
// the title gains a subtitle word and the year is off by one. Each node
// label is one unit of edit cost, so the original stays within distance 2
// while every unrelated record differs in at least the author names too.
func perturb(rec *tasm.Node) *tasm.Node {
	out := tasm.NewNode(rec.Label)
	for _, c := range rec.Children {
		switch c.Label {
		case "title":
			words := c.Children[0].Label
			out.AddChild(tasm.NewNode("title", tasm.NewNode(words+" study")))
		case "year":
			y := c.Children[0].Label
			out.AddChild(tasm.NewNode("year", tasm.NewNode(y[:3]+string('0'+(y[3]-'0'+1)%10))))
		default:
			out.AddChild(c)
		}
	}
	return out
}
