// Package work declares the counters of a TASM-postorder scan's work —
// what the candidate pruning pipeline did — once: the kernel counts into
// a Counts, corpus.Stats embeds it (its JSON tags are the keys of a query
// response's stats and of a trace's scan span), and tasmd's /metrics rows
// are its metric and help tags. A counter added here reaches all of them
// with no other declaration.
package work

// Counts is the work of one or more scans. Every field is a uint64
// counter that adds across scans, documents, shards and requests.
type Counts struct {
	// Candidates is the number of candidate subtrees, cand(T, τ) at the
	// scan's largest τ, that document scans enumerated: visited, or
	// stepped over whole by the label-histogram gate.
	Candidates uint64 `json:"candidates" metric:"tasmd_candidates_total" help:"Candidate subtrees enumerated by document scans at their largest size threshold."`
	// HistSkipped is the number of candidate subtrees skipped whole by
	// the label-histogram lower bound: no view fill, no TED. The gate
	// runs once per (query, candidate) pair, so one candidate skipped
	// for every query of a Q-query batch adds Q.
	HistSkipped uint64 `json:"histSkipped" metric:"tasmd_candidates_hist_skipped_total" help:"Candidate subtrees skipped by the histogram-intersection lower bound."`
	// TEDAborted is the number of subtree evaluations cut short because a
	// lower bound crossed the cutoff: rejected whole by the label bag of
	// the view (rung 0, also counted in TEDGated) or abandoned inside the
	// DP by the row minimum (rung 1). Evaluated + TEDAborted is the
	// number of evaluations started.
	TEDAborted uint64 `json:"tedAborted" metric:"tasmd_ted_evals_aborted_total" help:"Subtree evaluations cut short by a lower bound of the bounded Zhang-Shasha evaluation (gated ones included)."`
	// TEDGated is the part of TEDAborted that rung 0 rejected before the
	// DP touched a cell.
	TEDGated uint64 `json:"tedGated" metric:"tasmd_ted_evals_gated_total" help:"Aborted subtree evaluations rejected by the view's label bag before the DP started."`
	// Evaluated is the number of subtree evaluations that ran to
	// completion (bounded evaluations that no rung ended included).
	Evaluated uint64 `json:"evaluated" metric:"tasmd_ted_evals_completed_total" help:"Subtree evaluations run to completion."`
	// TEDMemoHits is the number of started evaluations answered from the
	// distance computer's memo of already evaluated views instead of a
	// dynamic program. Each is also counted in Evaluated or TEDAborted,
	// under the outcome of the evaluation that computed its row — at a
	// cutoff no tighter than the hit's, so the split between the two can
	// differ from what the dynamic program would have reported, their sum
	// cannot.
	TEDMemoHits uint64 `json:"tedMemoHits" metric:"tasmd_ted_evals_memo_total" help:"Subtree evaluations (counted as aborted or completed too) answered from the row of an identical view evaluated earlier in the query."`
	// ViewFills is the number of candidate subtrees copied into a flat
	// view and built (leftmost leaves, keyroots): one per evaluation that
	// runs the dynamic program, plus one per memo-answered evaluation
	// with a match to materialize when trees were requested. Rung 0 and
	// the memo read the subtree's labels and sizes where they lie, so
	// with no trees requested ViewFills = Evaluated + TEDAborted −
	// TEDGated − TEDMemoHits.
	ViewFills uint64 `json:"viewFills" metric:"tasmd_view_fills_total" help:"Candidate subtrees copied into a view and built for the dynamic program or a materialized match."`
	// CandidateSetMisses is the number of document scans whose τ found
	// every slot of the document's candidate cache held by other τ
	// values, so that the scan located and searched the candidates
	// itself. A steady non-zero rate means the traffic uses more τ values
	// than a document keeps.
	CandidateSetMisses uint64 `json:"candidateSetMisses,omitempty" metric:"tasmd_candidate_set_misses_total" help:"Scanned documents whose size threshold found every candidate-cache slot held by other thresholds, so their candidates were located afresh."`
}

// Add adds o's counters to c's.
func (c *Counts) Add(o Counts) {
	c.Candidates += o.Candidates
	c.HistSkipped += o.HistSkipped
	c.TEDAborted += o.TEDAborted
	c.TEDGated += o.TEDGated
	c.Evaluated += o.Evaluated
	c.TEDMemoHits += o.TEDMemoHits
	c.ViewFills += o.ViewFills
	c.CandidateSetMisses += o.CandidateSetMisses
}
