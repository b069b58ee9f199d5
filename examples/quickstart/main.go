// Quickstart: find the top-k subtrees of an XML document that are most
// similar to a small query tree.
//
//	go run ./examples/quickstart
//
// The query is written in bracket notation — "{a{b}{c}}" is a node a with
// children b and c — and the document is plain XML. Distances are unit-cost
// tree edit distances: the number of node insertions, deletions and
// renames needed to turn the query into the matched subtree.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"tasm"
)

const catalog = `
<library>
  <book>
    <author>Ada Lovelace</author>
    <title>Notes on the Analytical Engine</title>
    <year>1843</year>
  </book>
  <book>
    <author>Donald Knuth</author>
    <title>The Art of Computer Programming</title>
    <year>1968</year>
  </book>
  <journal>
    <title>Communications of the ACM</title>
    <issue>12</issue>
  </journal>
  <book>
    <author>Edgar Codd</author>
    <title>A Relational Model of Data</title>
    <year>1970</year>
  </book>
</library>`

func main() {
	m := tasm.New()

	doc, err := m.ParseXML(strings.NewReader(catalog))
	if err != nil {
		log.Fatal(err)
	}

	// Look for books by Knuth — the year is misremembered and the title
	// is partial, but approximate matching tolerates both.
	query, err := m.ParseBracket(
		"{book{author{Donald Knuth}}{title{Art of Programming}}{year{1969}}}")
	if err != nil {
		log.Fatal(err)
	}

	matches, err := m.TopK(context.Background(), query, doc, 3)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query has %d nodes; TASM will never materialize a subtree larger than τ = %d nodes\n\n",
		query.Size(), m.Tau(query, 3))
	for i, match := range matches {
		fmt.Printf("#%d  distance %.0f  (subtree at postorder position %d, %d nodes)\n",
			i+1, match.Dist, match.Pos, match.Size)
		fmt.Printf("    %s\n", match.Tree)
	}
}
