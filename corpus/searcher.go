package corpus

import (
	"context"
	"fmt"
	"io"

	"tasm/internal/ranking"
	"tasm/internal/tree"
)

// Searcher is the query contract every corpus backend implements: a
// single corpus directory (*Corpus), a scatter-gather group of shards
// (shard.Group), or a remote tasmd instance (shard.Client). The three are
// interchangeable — cmd/tasmd serves any Searcher — so a deployment can
// grow from one directory to a tree of routers without the query surface
// changing.
//
// TopK and TopKBatch accept a context carrying cancellation and deadline;
// implementations stop promptly (the local scans poll the context once
// per visited candidate) and return ctx.Err(). Queries may come from
// any label dictionary: implementations re-intern them through
// request-scoped overlays (or, across process boundaries, serialize them
// as bracket strings), so the query's dictionary never constrains the
// backend.
//
// Implementations outside this package resolve their options with
// ResolveQueryOptions and read the exported QueryConfig fields.
type Searcher interface {
	// TopK returns the k subtrees closest to q across the backend's
	// documents, ascending by (distance, document order, position): the
	// answer of TopKBatch for a batch of one, which is how every
	// implementation here computes it.
	TopK(ctx context.Context, q *tree.Tree, k int, opts ...QueryOption) ([]Match, error)
	// TopKBatch answers one or several queries in one pass; result i
	// corresponds to queries[i] and does not depend on the rest of the
	// batch.
	TopKBatch(ctx context.Context, queries []*tree.Tree, k int, opts ...QueryOption) ([][]Match, error)
	// Docs lists the backend's documents in document order — for a group,
	// the concatenation of its shards' listings in shard order.
	Docs() []DocInfo
	// Generation returns a counter that increases whenever the document
	// set changes; result caches key on it.
	Generation() uint64
}

// Ingester is the ingest-side contract of backends that own document
// storage. *Corpus implements it; read-only backends (a scatter-gather
// group, a remote client) do not — route ingests to the shard that should
// own the document.
type Ingester interface {
	// AddXML parses and ingests an XML document under the given name.
	AddXML(name string, r io.Reader) (DocInfo, error)
	// AddTree ingests an already-materialized document tree.
	AddTree(name string, t *tree.Tree) (DocInfo, error)
	// Remove deletes the named document. Document ids are never reused,
	// so caches keyed on (generation, id) stay valid; the backing files
	// are garbage-collected best-effort.
	Remove(name string) error
}

var (
	_ Searcher = (*Corpus)(nil)
	_ Ingester = (*Corpus)(nil)
)

// ValidateQuery checks the preconditions every Searcher.TopK shares —
// non-empty query, k ≥ 1 — with the canonical error messages, so all
// implementations reject bad input identically.
func ValidateQuery(q *tree.Tree, k int) error {
	if q == nil || q.Size() == 0 {
		return fmt.Errorf("corpus: query must be a non-empty tree")
	}
	if k < 1 {
		return fmt.Errorf("corpus: k must be ≥ 1, got %d", k)
	}
	return nil
}

// ValidateBatch is ValidateQuery for Searcher.TopKBatch: at least one
// query, all non-empty, k ≥ 1, and a Cutoffs option (when present)
// matching the query count.
func ValidateBatch(queries []*tree.Tree, k int, cfg *QueryConfig) error {
	if len(queries) == 0 {
		return fmt.Errorf("corpus: batch needs at least one query")
	}
	if k < 1 {
		return fmt.Errorf("corpus: k must be ≥ 1, got %d", k)
	}
	if cfg != nil && cfg.Cutoffs != nil && len(cfg.Cutoffs) != len(queries) {
		return fmt.Errorf("corpus: %d batch cutoffs for %d queries", len(cfg.Cutoffs), len(queries))
	}
	for i, q := range queries {
		if q == nil || q.Size() == 0 {
			return fmt.Errorf("corpus: query %d must be a non-empty tree", i)
		}
	}
	return nil
}

// Cutoff is a lock-free, monotonically tightening bound on the distance a
// subtree must beat to enter the final top-k ranking. Cooperating
// searches share one: every heap that fills publishes its k-th distance
// into the cutoff (an atomic min), and every scan's pruning gates read it
// with one atomic load. Within a single TopK run the cutoff spans
// documents — earlier documents tighten later ones — and a scatter-gather
// group passes one cutoff to all of its shards, so a shard still scanning
// prunes against results other shards have already found.
//
// Sharing a cutoff never changes results: the published value is always
// an upper bound on the final k-th distance, and every gate compares
// strictly, so exact boundary ties are still evaluated.
type Cutoff = ranking.Cutoff

// NewCutoff returns a cutoff with no published bound yet (+Inf).
func NewCutoff() *Cutoff { return ranking.NewCutoff() }
