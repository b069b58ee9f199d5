package experiments

import (
	"fmt"
	"io"
	"runtime"

	"tasm/internal/core"
	"tasm/internal/cost"
	"tasm/internal/ted"
	"tasm/internal/tree"
)

// Fig10Point is one measurement of the memory experiment of Figure 10.
type Fig10Point struct {
	Scale     int
	Nodes     int
	QuerySize int
	Algo      string
	PeakBytes uint64
}

// Fig10 reproduces Figure 10: peak heap usage as a function of the
// document size. TASM-dynamic materializes the document and an O(m·n)
// distance matrix, so its footprint grows linearly; TASM-postorder holds
// only the prefix ring buffer and per-candidate state, so its footprint is
// flat across document sizes. Reported peaks are the live heap, sampled
// after forced collections from inside the run, above the live heap
// before it (see peakLiveHeap): harness state retained between runs and
// the garbage the generator leaves behind do not pollute the series.
//
// To keep the measurement honest the postorder runs stream straight from
// the generator: the document is never materialized in the measured
// process state. The dynamic runs rebuild the document tree inside the
// measured region, exactly as TASM-dynamic must.
func Fig10(w io.Writer, cfg Config) ([]Fig10Point, error) {
	cache := newDocCache(cfg)
	qsizes := pick(cfg.QuerySizes, 0, 2)
	fmt.Fprintf(w, "Figure 10: peak heap vs document size (k=%d)\n", cfg.K)
	table(w, "scale", "nodes", "|Q|", "algo", "peak MB")
	var out []Fig10Point

	for _, scale := range cfg.Scales {
		// Query selection needs the materialized tree; select before
		// measuring, then drop the cache so the measured region is clean.
		queryBySize := map[int]*tree.Tree{}
		nodes := 0
		for _, qs := range qsizes {
			queries, err := cache.queries(scale, qs, 1)
			if err != nil {
				return nil, err
			}
			queryBySize[qs] = queries[0]
		}
		doc, _, err := cache.tree(scale)
		if err != nil {
			return nil, err
		}
		nodes = doc.Size()
		cache.drop(scale)

		for _, qs := range qsizes {
			q := queryBySize[qs]

			// TASM-postorder: stream from the generator, document never
			// resident.
			queue, err := cache.queueNoTree(scale)
			if err != nil {
				return nil, err
			}
			peakPos, err := peakLiveHeap(func(s *heapSampler) error {
				_, err := core.PostorderStream(q, queue, cfg.K, core.Options{NoTrees: true, Probe: s})
				return err
			})
			if err != nil {
				return nil, err
			}

			// TASM-dynamic: must materialize the document first, then
			// holds it and the distance matrices of one Zhang–Shasha run
			// over it (core.Dynamic's footprint; its k-heap is
			// negligible). The probe's callbacks all come before the
			// matrices exist, so the sample is taken after the run.
			peakDyn, err := peakLiveHeap(func(s *heapSampler) error {
				doc, _, err := cache.tree(scale)
				if err != nil {
					return err
				}
				comp := ted.NewComputer(cost.Unit{}, q)
				comp.SubtreeDistances(doc)
				s.sample()
				runtime.KeepAlive(comp)
				runtime.KeepAlive(doc)
				return nil
			})
			if err != nil {
				return nil, err
			}
			cache.drop(scale)

			out = append(out,
				Fig10Point{scale, nodes, qs, "dyn", peakDyn},
				Fig10Point{scale, nodes, qs, "pos", peakPos})
			table(w, scale, nodes, qs, "dyn", fmt.Sprintf("%.2f", float64(peakDyn)/1e6))
			table(w, scale, nodes, qs, "pos", fmt.Sprintf("%.2f", float64(peakPos)/1e6))
		}
	}
	return out, nil
}
