// Command tasmgen generates the synthetic evaluation corpora (XMark-like,
// DBLP-like, PSD-like stand-ins for the paper's Section VII corpora; see
// the internal/datagen package comment) as XML files or binary postorder
// stores.
//
// Usage:
//
//	tasmgen -dataset xmark -scale 4 -o xmark4.xml
//	tasmgen -dataset dblp -scale 30000 -format store -o dblp.store
//
// The scale parameter is the XMark scale factor or the record/entry count
// for dblp and psd. Generation is deterministic in -seed.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"tasm/internal/datagen"
	"tasm/internal/dict"
	"tasm/internal/docstore"
	"tasm/internal/postorder"
	"tasm/internal/xmlstream"
)

func main() {
	var (
		dataset = flag.String("dataset", "xmark", "dataset family: xmark, dblp or psd")
		scale   = flag.Int("scale", 1, "scale factor (xmark) or record count (dblp, psd)")
		seed    = flag.Int64("seed", 1, "generation seed")
		format  = flag.String("format", "xml", "output format: xml or store")
		out     = flag.String("o", "", "output path (default stdout)")
	)
	flag.Parse()
	if err := run(*dataset, *scale, *seed, *format, *out); err != nil {
		fmt.Fprintln(os.Stderr, "tasmgen:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale int, seed int64, format, out string) error {
	var ds *datagen.Dataset
	switch dataset {
	case "xmark":
		ds = datagen.XMark(scale)
	case "dblp":
		ds = datagen.DBLP(scale)
	case "psd":
		ds = datagen.PSD(scale)
	default:
		return fmt.Errorf("unknown -dataset %q (want xmark, dblp or psd)", dataset)
	}

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)

	d := dict.New()
	switch format {
	case "xml":
		// Materialize and serialize. XML needs the tree shape; documents
		// at reproduction scale fit comfortably.
		t, err := ds.Tree(d, seed)
		if err != nil {
			return err
		}
		if err := xmlstream.WriteTree(bw, t); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tasmgen: %s scale %d: %d nodes, height %d\n",
			dataset, scale, t.Size(), t.Height())
	case "store":
		items, err := postorder.Collect(ds.Queue(d, seed))
		if err != nil {
			return err
		}
		if err := docstore.WriteItems(bw, d, items); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tasmgen: %s scale %d: %d nodes, %d distinct labels\n",
			dataset, scale, len(items), d.Len())
	default:
		return fmt.Errorf("unknown -format %q (want xml or store)", format)
	}
	return bw.Flush()
}
