package prb

// The candidate gate of a column scan: before the scan visits a single
// candidate, the cursor computes every candidate's histogram-intersection
// bound (LabelHist) against every query, one pass per (query, document),
// by whichever of two routes reads less.
//
// The walk reads the label column of every candidate, node by node. The
// postings pass reads only the nodes that carry a query label: for each
// distinct label of the query it steps through the label's postings
// (postorder.Columns.Postings), and a run of r postings inside one
// candidate lets that candidate match min(r, need) query nodes of the
// label. Candidates are disjoint intervals of the postorder, so a posting
// lies inside at most one, and one that lies inside none belongs to a node
// larger than τ. The pass finds a posting's candidate by two loads of the
// node map of the document's cached candidate set at τ (CandidateCache,
// mapBounds), so only a cursor that reads such a set takes it; one that
// locates its own candidates — no cache, or a cache whose every slot
// holds another τ — walks. Both routes compute the same number,
// Σ_label max(0, need − have), the bound CandidateBound computes from the
// ring; FuzzPostingsBound pins them equal.
//
// What the postings pass saves is the nodes that carry no query label; on
// a document where most nodes carry one it costs more than the walk, and
// the choice (readPostings) is made per (query, document) from the two
// counts it depends on. The count of query-label nodes comes from the
// caller, who can know it for free — a corpus plan reads each query
// label's count in each document's label profile to bound the document —
// where counting it here would cost a binary search per query label and
// document: on the bench's 130-node DBLP documents as much as the walk.

// postingCost and walkCost are what the two routes pay per posting read
// and per candidate node walked, in the same unit: a posting costs about
// four walked nodes, so the postings are read when fewer than a quarter
// of the candidates' nodes carry a query label. Measured with
// BenchmarkGate (queries of 8 nodes, τ = 21, drawn from the document; four
// runs) on a 2-vCPU x86-64 VM, Go 1.24, whose absolute times drift by half
// between runs while their ratios hold. The walk costs 2.1–4.0 ns per node
// on a DBLP bibliography (12-node records) and 5.0–7.2 on an XMark
// document, whose 5-node candidates make its per-candidate wipe and store
// a larger share. The node map of a cached set costs 3.0–5.7 ns per
// posting on XMark, 0.4–0.8 walked nodes, but 5.7–10.4 on DBLP, 1.5–3.1
// walked nodes, where nearly every posting is a run of its own; building
// the set costs 3–8 ns per document node, once per (document, τ). The
// quarter was set when a second postings route, a gallop over the
// candidate roots at 1.7–3.1 walked nodes per posting, served documents
// without a set; it is conservative for the map on both shapes. On the
// bench's XMark workloads 13.7–17.0 % of the candidates' nodes carry a
// query label and the postings are read; on its DBLP churn workload 41 %
// do and the label column is walked, a cached set sparing it only the
// root walk.
const (
	postingCost = 4
	walkCost    = 1
)

// readPostings reports whether the postings pass is the cheaper route for
// a query whose labels labelNodes nodes of the document carry — the
// postings the pass would read — and a document whose candidates cover
// covered nodes, the nodes the walk would read.
func readPostings(labelNodes, covered int) bool {
	return labelNodes*postingCost < covered*walkCost
}

// walkBounds fills row with h's bound for every candidate by reading each
// candidate's labels: a node whose label is not in the query costs one
// load and falls through, one that is counts towards the bound only while
// the query still wants more of its label, and instead of sliding every
// node off again the counts are wiped.
//
//tasm:hotpath
func (c *Cursor) walkBounds(h *LabelHist, row []int32) {
	// Ordinal, spelled out over locals: the stores to have below would
	// otherwise make every node reload the histogram's slice headers.
	dense, have, need := h.dense, h.have, h.need
	for j, r := range c.roots {
		window := c.labels[r-c.sizes[r-1] : r]
		missing := h.missing
		for _, l := range window {
			var o int
			if dense != nil {
				if uint(l) >= uint(len(dense)) {
					continue
				}
				o = int(dense[l])
			} else {
				o = h.Ordinal(int(l))
			}
			if o == 0 {
				continue
			}
			if have[o] < need[o] {
				have[o]++
				missing--
			}
		}
		wipe(h, window)
		row[j] = int32(missing)
	}
}

// mapBounds fills row with h's bound for every candidate of a cursor whose
// candidates come from the cached set s, from the label postings of the
// cursor's document: the candidate of each posting is two independent
// loads of the set's node map, and a run is the postings that map to one
// candidate.
//
//tasm:hotpath
func (c *Cursor) mapBounds(h *LabelHist, row []int32, s *candidateSet) {
	for j := range row {
		row[j] = int32(h.missing)
	}
	first, local := s.first, s.local
	for o, id := range h.ids[1:] {
		need := int32(h.need[o+1])
		last, run := -1, int32(0)
		for _, p := range c.cols.Postings(id) {
			i := p - 1
			d := local[i]
			if d == aboveTau {
				continue // a node larger than τ
			}
			if j := int(first[i>>blockShift]) + int(d); j != last {
				if last >= 0 {
					row[last] -= min(run, need)
				}
				last, run = j, 0
			}
			run++
		}
		if last >= 0 {
			row[last] -= min(run, need)
		}
	}
}
