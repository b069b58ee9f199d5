// Package tasm implements Top-k Approximate Subtree Matching: finding the
// k subtrees of a large document tree that are closest to a small query
// tree under the canonical tree edit distance.
//
// It is a from-scratch reproduction of
//
//	N. Augsten, D. Barbosa, M. Böhlen, T. Palpanas:
//	"TASM: Top-k Approximate Subtree Matching", ICDE 2010, pp. 353–364,
//
// including the paper's TASM-postorder algorithm, whose memory use is
// independent of the document size: documents are consumed as streaming
// postorder queues (from XML, from a binary store, or from any custom
// source), pruned by a prefix ring buffer to the candidate subtrees within
// the provable size bound τ = |Q|·(cQ+1) + k·cT, and ranked with the
// Zhang–Shasha tree edit distance.
//
// # Quick start
//
//	m := tasm.New()
//	query, _ := m.ParseBracket("{article{author}{title}}")
//	doc, _ := m.ParseXML(file)
//	matches, _ := m.TopK(ctx, query, doc, 5)
//	for _, match := range matches {
//	    fmt.Println(match.Pos, match.Dist, match.Tree)
//	}
//
// For documents too large to hold in memory, stream them:
//
//	matches, _ := m.TopKStream(ctx, query, m.XMLQueue(bigFile), 5)
//
// All trees compared by one Matcher share its label dictionary; create one
// Matcher per corpus (they are cheap) and parse both query and document
// through it.
//
// # Multi-document corpora and the tasmd daemon
//
// To query across many documents, ingest them into a Corpus — a managed
// directory of persisted postorder stores under a manifest, indexed by
// pq-gram profiles derived from the stores:
//
//	c, _ := tasm.OpenCorpus("./corpus")
//	c.AddXML("dblp", dblpFile)
//	c.AddXML("psd", psdFile)
//	q, _ := c.ParseBracket("{article{author}{title}}")
//	matches, _ := c.TopK(ctx, q, 5)
//	for _, match := range matches {
//	    fmt.Println(match.Doc.Name, match.Pos, match.Dist)
//	}
//
// Corpus queries scan documents most-promising-first into one shared
// ranking and skip documents whose profile lower bound proves they cannot
// affect the top k; results are identical to an exhaustive scan. The same
// engine serves over HTTP via the tasmd daemon:
//
//	tasmd -dir ./corpus -addr :8421
//	curl -X POST localhost:8421/v1/docs -H 'Content-Type: application/json' \
//	     -d '{"name":"dblp","xml":"<dblp>…</dblp>"}'
//	curl -X POST localhost:8421/v1/topk \
//	     -d '{"query":"{article{author}{title}}","k":5,"trees":true}'
//
// See the corpus package and cmd/tasmd for details.
//
// # The Searcher contract and sharding
//
// Corpus queries go through the corpus.Searcher interface — TopK,
// TopKBatch and Docs taking a context.Context, plus the non-blocking
// NumDocs and Generation — with four interchangeable implementations:
// *corpus.Corpus (one directory), shard.Group (scatter-gather over
// several Searchers, results identical to one merged corpus),
// shard.ReplicaSet (interchangeable copies of one shard) and
// shard.Client (a remote tasmd instance). The tasmd daemon serves any of
// them, so a deployment grows from one directory to a router fanning out
// over leaf daemons without the query API changing:
//
//	tasmd -dir /data/shard0 -addr :8421                    # leaves own documents
//	tasmd -shards http://a:8421,http://b:8421 -addr :80    # the router scatter-gathers
//
// Ingest-side mutation (AddXML, AddTree, Remove) is a method of
// *corpus.Corpus only, not of the Searcher contract: documents live on
// exactly one shard, and routers are read-only.
//
// # Contexts and cancellation
//
// Every scanning query method — Matcher.TopK, TopKStream and TopKBatch,
// Corpus.TopK and TopKBatch — takes a context.Context as its first
// argument; scans poll it once per visited candidate, so cancelling a
// request (a disconnected client, a server draining for shutdown, a
// deadline) stops mid-scan promptly at zero steady-state allocation cost.
package tasm

import (
	"context"
	"fmt"
	"io"

	"tasm/corpus"
	"tasm/internal/core"
	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/docstore"
	"tasm/internal/postorder"
	"tasm/internal/ranking"
	"tasm/internal/ted"
	"tasm/internal/tree"
	"tasm/internal/xmlstream"
)

// Tree is an ordered labeled tree in flattened postorder form. Obtain one
// from a Matcher's parse methods or FromNode; its query methods (Size,
// Label, SubtreeSize, Subtree, …) are documented on the type.
type Tree = tree.Tree

// Node is a tree node in pointer form, convenient for programmatic
// construction; convert with Matcher.FromNode.
type Node = tree.Node

// NewNode returns a pointer-form node with the given label and children.
func NewNode(label string, children ...*Node) *Node {
	return tree.NewNode(label, children...)
}

// Match is one ranked subtree: its distance to the query, the 1-based
// postorder position of its root in the document, its size, and (unless
// suppressed) the matched subtree itself.
type Match = ranking.Entry

// CostModel assigns a cost ≥ 1 to every tree node (Definition 4 of the
// paper); delete/insert cost the node's cost, renames cost the mean of the
// two node costs.
type CostModel = cost.Model

// Queue is a streaming postorder queue: the document interface of
// TASM-postorder (Definition 2). Implement it to drive TASM from a custom
// storage engine; Next must yield (label, subtree size) pairs in postorder
// and io.EOF at the end.
type Queue = postorder.Queue

// Item is one (label id, subtree size) element of a Queue.
type Item = postorder.Item

// Dict is the label dictionary interning node labels as integers. Custom
// Queue sources must intern their labels in the dictionary of the Matcher
// the queue will be matched under (see Matcher.Dict).
type Dict = dict.Dict

// NewSliceQueue returns a Queue yielding a fixed item slice; useful for
// custom document sources and tests.
func NewSliceQueue(items []Item) Queue { return postorder.NewSliceQueue(items) }

// CollectQueue drains a queue into a slice. Mainly useful for re-playing
// one generated document through several queries.
func CollectQueue(q Queue) ([]Item, error) { return postorder.Collect(q) }

// Probe receives instrumentation callbacks from TASM runs; see
// Matcher.SetProbe. It is the hook behind the paper's Figure 11/12
// measurements.
type Probe = core.Probe

// Corpus is a managed directory of persisted documents answering top-k
// queries across all of them with pq-gram prefiltering; see package
// corpus for the directory layout and filtering guarantees, and
// cmd/tasmd for the HTTP daemon built on it.
type Corpus = corpus.Corpus

// CorpusMatch is one ranked subtree of a corpus-wide query.
type CorpusMatch = corpus.Match

// Searcher is the context-aware query contract shared by a single corpus,
// a scatter-gather shard group, and a remote tasmd client; see package
// corpus and corpus/shard.
type Searcher = corpus.Searcher

// OpenCorpus opens (or creates) the corpus directory dir.
func OpenCorpus(dir string, opts ...corpus.Option) (*Corpus, error) {
	return corpus.Open(dir, opts...)
}

// UnitCost returns the unit cost model: every node costs 1 and the
// distance is the minimum number of edit operations. This is the default.
func UnitCost() CostModel { return cost.Unit{} }

// PerLabelCost returns a model with per-label costs and a default for
// unlisted labels; all costs must be ≥ 1.
func PerLabelCost(table map[string]float64, def float64) (CostModel, error) {
	return cost.NewPerLabel(table, def)
}

// FanoutWeightedCost returns the fanout-weighted model of Augsten et al.:
// cst(x) = 1 + weight·fanout(x), capped at cap. It makes structural edits
// of internal nodes more expensive than leaf edits.
func FanoutWeightedCost(weight, cap float64) (CostModel, error) {
	return cost.NewFanoutWeighted(weight, cap)
}

// Matcher is the entry point: it owns the label dictionary shared by the
// queries and documents it parses, and the cost model used for matching.
//
// A Matcher is not safe for concurrent use.
type Matcher struct {
	dict  dict.Dict
	model CostModel
	ct    float64
	probe Probe
	// scratch is the scan state every run reuses — distance computers,
	// their memo, ring, cursor and view — reset after each run so it
	// holds no query between runs.
	scratch core.ScanScratch
}

// Option configures a Matcher.
type Option func(*Matcher)

// WithCostModel selects a cost model (default: UnitCost).
func WithCostModel(m CostModel) Option {
	return func(ma *Matcher) { ma.model = m }
}

// WithDocumentCostBound overrides cT, the upper bound on document node
// costs used in the τ size bound. Only needed for streamed documents under
// cost models whose DocBound is loose.
func WithDocumentCostBound(ct float64) Option {
	return func(ma *Matcher) { ma.ct = ct }
}

// New returns a Matcher with a fresh label dictionary.
func New(opts ...Option) *Matcher {
	m := &Matcher{dict: dict.New(), model: cost.Unit{}}
	for _, o := range opts {
		o(m)
	}
	return m
}

// SetProbe installs an instrumentation probe on subsequent runs; nil
// disables instrumentation.
func (m *Matcher) SetProbe(p Probe) { m.probe = p }

// Dict returns the matcher's label dictionary, needed by custom Queue
// sources to produce Item labels compatible with the matcher's queries.
func (m *Matcher) Dict() Dict { return m.dict }

// ParseBracket parses a tree in bracket notation, e.g. "{a{b}{c}}".
func (m *Matcher) ParseBracket(s string) (*Tree, error) {
	return tree.Parse(m.dict, s)
}

// ParseXML parses a whole XML document into a materialized tree. Elements
// become nodes labeled with their tag, attributes become "@name" children
// with a value leaf, and non-whitespace text runs become leaves.
func (m *Matcher) ParseXML(r io.Reader) (*Tree, error) {
	return xmlstream.ParseTree(m.dict, r)
}

// XMLQueue returns a streaming postorder queue over an XML document,
// reading it incrementally with memory proportional to its depth. Use with
// TopKStream for documents that must not be materialized.
func (m *Matcher) XMLQueue(r io.Reader) Queue {
	return xmlstream.NewReader(m.dict, r)
}

// FromNode converts a pointer-form tree built with NewNode.
func (m *Matcher) FromNode(root *Node) *Tree {
	return tree.FromNode(m.dict, root)
}

// WriteXML serializes a tree (e.g. a matched subtree) back to XML using
// the inverse of the ParseXML node mapping: "@name" children become
// attributes, leaf labels that are not valid element names become text.
func (m *Matcher) WriteXML(w io.Writer, t *Tree) error {
	return xmlstream.WriteTree(w, t)
}

// SaveStore persists a document to the binary postorder store format,
// which re-opens with OpenStore as a Queue without XML parsing cost.
func (m *Matcher) SaveStore(w io.Writer, doc *Tree) error {
	if doc.Dict() != m.dict {
		return fmt.Errorf("tasm: document was parsed by a different Matcher")
	}
	return docstore.WriteItems(w, m.dict, postorder.Items(doc))
}

// OpenStore opens a binary postorder store as a streaming Queue, merging
// its labels into the matcher's dictionary.
func (m *Matcher) OpenStore(r io.Reader) (Queue, error) {
	return docstore.NewReader(m.dict, r)
}

// BuildTree materializes the tree encoded by a postorder queue. It fails
// if the stream is not a single well-formed tree.
func (m *Matcher) BuildTree(q Queue) (*Tree, error) {
	return postorder.BuildTree(m.dict, q)
}

// Distance returns the tree edit distance δ(a, b) under the matcher's
// cost model.
func (m *Matcher) Distance(a, b *Tree) float64 {
	return ted.Distance(m.model, a, b)
}

// EditOp is one operation of an optimal edit script; see Matcher.EditScript.
type EditOp = ted.EditOp

// Operation kinds of an EditOp.
const (
	OpMatch  = ted.OpMatch
	OpRename = ted.OpRename
	OpDelete = ted.OpDelete
	OpInsert = ted.OpInsert
)

// EditScript returns an optimal edit script transforming a into b: the
// node alignments of a least costly edit mapping, whose costs sum to
// Distance(a, b). Use it to explain *why* a match has its distance.
func (m *Matcher) EditScript(a, b *Tree) []EditOp {
	return ted.NewComputer(m.model, a).EditScript(b)
}

// Tau returns the provable upper bound τ = |Q|·(cQ+1) + k·cT on the size
// of any subtree that can appear in a top-k ranking for the query
// (Theorem 3). TASM never evaluates distances for subtrees above it.
func (m *Matcher) Tau(q *Tree, k int) int {
	return core.Tau(m.model, q, k, m.ct)
}

// TopK returns the k subtrees of doc closest to q, ascending by distance
// (ties broken by document position), using TASM-postorder. The document
// tree is streamed internally; memory beyond the document itself is
// O(|q|² + |q|·k). The scan polls ctx once per candidate and returns
// ctx.Err() promptly when it is cancelled or its deadline passes.
func (m *Matcher) TopK(ctx context.Context, q, doc *Tree, k int) ([]Match, error) {
	defer m.scratch.Reset()
	return core.Postorder(q, doc, k, m.options(ctx))
}

// TopKStream is TopK over a streaming document: total memory is
// independent of the document size (Theorem 5 of the paper). The queue is
// consumed; stream a fresh one per query. The scan is sequential — a
// stream can only be dequeued in order; a corpus (OpenCorpus) queried with
// corpus.WithWorkers splits the candidates of its resident documents
// across goroutines.
func (m *Matcher) TopKStream(ctx context.Context, q *Tree, doc Queue, k int) ([]Match, error) {
	defer m.scratch.Reset()
	return core.PostorderStream(q, doc, k, m.options(ctx))
}

// TopKBatch answers several queries in a single scan of the document
// stream — the batch workload of data cleaning, where many dirty records
// are matched against one corpus. Result i corresponds to queries[i] and
// is identical to an individual TopKStream run; the document is parsed
// and pruned only once.
func (m *Matcher) TopKBatch(ctx context.Context, queries []*Tree, doc Queue, k int) ([][]Match, error) {
	defer m.scratch.Reset()
	return core.PostorderBatch(queries, doc, k, m.options(ctx))
}

// TopKDynamic runs the TASM-dynamic baseline (Section IV-F of the paper):
// one Zhang–Shasha pass over the whole document. It needs O(|q|·|doc|)
// memory and exists for comparison and for small documents.
func (m *Matcher) TopKDynamic(q, doc *Tree, k int) ([]Match, error) {
	return core.Dynamic(q, doc, k, m.options(context.Background()))
}

func (m *Matcher) options(ctx context.Context) core.Options {
	return core.Options{Ctx: ctx, Model: m.model, CT: m.ct, Probe: m.probe, Scratch: &m.scratch}
}
