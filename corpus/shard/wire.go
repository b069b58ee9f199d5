package shard

import (
	"tasm/corpus"
	"tasm/internal/qtrace"
)

// Request is the JSON body of tasmd's two query endpoints, as a Client
// sends it and tasmd decodes it. POST /v1/topk takes one query — exactly
// one of Query and QueryXML; POST /v1/topk-batch takes Queries and
// neither of the others (tasmd answers 400 for a field the endpoint does
// not take, even an empty one).
type Request struct {
	// Query is the /v1/topk query in bracket notation.
	Query string `json:"query,omitempty"`
	// Queries are the /v1/topk-batch queries in bracket notation, answered
	// in one corpus scan (each document is read once for the whole batch,
	// and all queries share one request-scoped dictionary overlay).
	Queries []string `json:"queries,omitempty"`
	// QueryXML is the /v1/topk query as an XML document.
	QueryXML string `json:"queryXml,omitempty"`
	K        int    `json:"k"`
	// Docs restricts the query to the named documents; empty means all.
	Docs []string `json:"docs,omitempty"`
	// Trees includes each matched subtree in bracket notation.
	Trees bool `json:"trees,omitempty"`
	// Exhaustive disables the pq-gram prefilter for this request; the
	// results are identical, only slower. Meant for debugging and
	// verification.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Partial opts into best-effort degradation on a router: if a shard
	// (with all its replicas) is down, the surviving shards' merged
	// results are returned and stats.degraded names what was missing.
	// Default is fail-loud.
	Partial bool `json:"partial,omitempty"`
}

// Match is one ranked subtree in a query response.
type Match struct {
	Doc   string  `json:"doc"`
	DocID int     `json:"docId"`
	Pos   int     `json:"pos"`
	Dist  float64 `json:"dist"`
	Size  int     `json:"size"`
	Tree  string  `json:"tree,omitempty"`
}

// TopKResponse answers POST /v1/topk.
type TopKResponse struct {
	Matches []Match      `json:"matches"`
	Stats   corpus.Stats `json:"stats"`
	// Trace is the request's span tree, present only for ?trace=1
	// requests. A router's trace embeds each leaf's block under shards.
	Trace *qtrace.Wire `json:"trace,omitempty"`
}

// BatchResponse answers POST /v1/topk-batch: Results[i] ranks
// Queries[i], and the stats describe the single shared scan.
type BatchResponse struct {
	Results [][]Match    `json:"results"`
	Stats   corpus.Stats `json:"stats"`
	// Trace is the batch's span tree, present only for ?trace=1 requests.
	Trace *qtrace.Wire `json:"trace,omitempty"`
}
