package tasm_test

import (
	"context"
	"fmt"
	"strings"

	"tasm"
)

// The examples below double as executable documentation on pkg.go.dev and
// as golden tests for the public API.

func ExampleMatcher_TopK() {
	ctx := context.Background()
	m := tasm.New()
	doc, _ := m.ParseXML(strings.NewReader(
		`<dblp>
		   <article><author>John</author><title>X1</title></article>
		   <article><author>Peter</author><title>X3</title></article>
		   <book><title>X2</title></book>
		 </dblp>`))
	query, _ := m.ParseBracket("{article{author{John}}{title{X1}}}")

	matches, _ := m.TopK(ctx, query, doc, 2)
	for _, match := range matches {
		fmt.Printf("distance %.0f: %s\n", match.Dist, match.Tree)
	}
	// Output:
	// distance 0: {article{author{John}}{title{X1}}}
	// distance 2: {article{author{Peter}}{title{X3}}}
}

func ExampleMatcher_TopKStream() {
	ctx := context.Background()
	m := tasm.New()
	query, _ := m.ParseBracket("{book{title{X2}}}")

	// Stream the document: it is never materialized, so memory stays
	// independent of the document size (Theorem 5 of the paper).
	doc := m.XMLQueue(strings.NewReader(
		`<dblp><article><title>X1</title></article><book><title>X2</title></book></dblp>`))

	matches, _ := m.TopKStream(ctx, query, doc, 1)
	fmt.Printf("best: %s at distance %.0f\n", matches[0].Tree, matches[0].Dist)
	// Output:
	// best: {book{title{X2}}} at distance 0
}

func ExampleMatcher_Distance() {
	m := tasm.New()
	// The worked example of the paper (Figure 2/3): δ(G, H) = 4.
	g, _ := m.ParseBracket("{a{b}{c}}")
	h, _ := m.ParseBracket("{x{a{b}{d}}{a{b}{c}}}")
	fmt.Println(m.Distance(g, h))
	// Output:
	// 4
}

func ExampleMatcher_EditScript() {
	m := tasm.New()
	a, _ := m.ParseBracket("{a{b}{c}}")
	b, _ := m.ParseBracket("{a{b}{x}}")
	for _, op := range m.EditScript(a, b) {
		switch op.Op {
		case tasm.OpMatch:
			fmt.Printf("match  %s\n", a.Label(op.QNode))
		case tasm.OpRename:
			fmt.Printf("rename %s -> %s\n", a.Label(op.QNode), b.Label(op.TNode))
		case tasm.OpDelete:
			fmt.Printf("delete %s\n", a.Label(op.QNode))
		case tasm.OpInsert:
			fmt.Printf("insert %s\n", b.Label(op.TNode))
		}
	}
	// Output:
	// match  a
	// rename c -> x
	// match  b
}

func ExampleMatcher_Tau() {
	m := tasm.New()
	// Section VI-B: a 15-node query with k=20 under unit costs bounds
	// every possible answer subtree at 2·15+20 = 50 nodes.
	query, _ := m.ParseBracket(
		"{article{author{a}}{author{b}}{title{t1 t2 t3}}{year{2009}}{journal{j}}{volume{7}}{pages{1}}}")
	fmt.Println(query.Size(), m.Tau(query, 20))
	// Output:
	// 15 50
}
