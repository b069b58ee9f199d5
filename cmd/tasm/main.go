// Command tasm answers top-k approximate subtree matching queries against
// XML documents or binary postorder stores from the command line.
//
// Usage:
//
//	tasm -q '{article{author}{title}}' -doc dblp.xml -k 5
//	tasm -qxml query.xml -doc dblp.store -k 10 -format store -show-trees
//
// The query is given either in bracket notation (-q) or as an XML file
// (-qxml). The document is streamed, so arbitrarily large files work in
// constant memory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"tasm"
)

func main() {
	var (
		queryBracket = flag.String("q", "", "query in bracket notation, e.g. '{article{author}{title}}'")
		queryXML     = flag.String("qxml", "", "path of an XML file holding the query tree")
		docPath      = flag.String("doc", "", "path of the document (XML or binary store)")
		format       = flag.String("format", "xml", "document format: xml or store")
		k            = flag.Int("k", 5, "number of matches to return")
		fanoutW      = flag.Float64("fanout-weight", 0, "use the fanout-weighted cost model with this weight (0 = unit costs)")
		fanoutCap    = flag.Float64("fanout-cap", 16, "node cost cap for the fanout-weighted model")
		showTrees    = flag.Bool("show-trees", false, "print each matched subtree in bracket notation")
		timing       = flag.Bool("time", false, "report elapsed wall-clock time")
	)
	flag.Parse()
	if err := run(*queryBracket, *queryXML, *docPath, *format, *k, *fanoutW, *fanoutCap, *showTrees, *timing); err != nil {
		fmt.Fprintln(os.Stderr, "tasm:", err)
		os.Exit(1)
	}
}

func run(queryBracket, queryXML, docPath, format string, k int, fanoutW, fanoutCap float64, showTrees, timing bool) error {
	if docPath == "" {
		return fmt.Errorf("-doc is required")
	}
	if (queryBracket == "") == (queryXML == "") {
		return fmt.Errorf("exactly one of -q or -qxml is required")
	}

	opts := []tasm.Option{}
	if fanoutW > 0 {
		model, err := tasm.FanoutWeightedCost(fanoutW, fanoutCap)
		if err != nil {
			return err
		}
		opts = append(opts, tasm.WithCostModel(model))
	}
	m := tasm.New(opts...)

	var (
		q   *tasm.Tree
		err error
	)
	if queryBracket != "" {
		q, err = m.ParseBracket(queryBracket)
	} else {
		f, ferr := os.Open(queryXML)
		if ferr != nil {
			return ferr
		}
		q, err = m.ParseXML(f)
		f.Close()
	}
	if err != nil {
		return fmt.Errorf("parsing query: %w", err)
	}

	f, err := os.Open(docPath)
	if err != nil {
		return err
	}
	defer f.Close()

	var queue tasm.Queue
	switch format {
	case "xml":
		queue = m.XMLQueue(f)
	case "store":
		queue, err = m.OpenStore(f)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -format %q (want xml or store)", format)
	}

	start := time.Now()
	matches, err := m.TopKStream(context.Background(), q, queue, k)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("query: %d nodes, τ = %d (max candidate subtree size)\n", q.Size(), m.Tau(q, k))
	fmt.Printf("%4s  %10s  %8s  %6s\n", "rank", "distance", "position", "size")
	for i, match := range matches {
		fmt.Printf("%4d  %10.2f  %8d  %6d\n", i+1, match.Dist, match.Pos, match.Size)
		if showTrees && match.Tree != nil {
			fmt.Printf("      %s\n", match.Tree)
		}
	}
	if timing {
		fmt.Printf("elapsed: %v\n", elapsed)
	}
	return nil
}
