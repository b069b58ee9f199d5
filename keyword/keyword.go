// Package keyword implements approximate XML keyword search on top of
// TASM — the future-work direction sketched in Section VIII of the paper:
// "the problem of approximate keyword search, in which one is interested
// in small subtrees that match a set of keywords, can be accommodated in
// the formulation of the tree edit distance."
//
// The accommodation works as follows. A set of keywords is turned into a
// star-shaped query: an inexpensive wildcard root with one child per
// keyword. Matching that query against a document subtree under a
// per-label cost model that makes the synthetic wildcard node nearly free
// to rename yields a score that (a) charges for every keyword the subtree
// is missing (its leaf must be inserted into the mapping as a deletion
// from the query), (b) charges for the extra content of large subtrees
// (insertions), and therefore (c) prefers exactly the small subtrees that
// cover many keywords — the classic keyword-search desiderata of content
// coverage and conciseness, expressed in one established metric instead of
// an ad-hoc score combination.
//
// Because the scoring is plain TASM, all machinery of the paper applies
// unchanged: the τ bound caps the subtree size that can reach the top-k,
// the prefix ring buffer prunes in one streaming pass, and memory is
// independent of the document size.
package keyword

import (
	"fmt"
	"sort"

	"tasm/internal/core"
	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/tree"
)

// WildcardLabel is the label of the synthetic root of keyword queries.
// Renaming it to any document label is almost free, so the root aligns
// with whatever element encloses the keywords.
const WildcardLabel = "\x00*"

// wildcardCost is the node cost of the wildcard root. Definition 4
// requires cst ≥ 1; the rename cost against a unit-cost document node is
// (1+1)/2 = 1, so the wildcard is charged like one ordinary rename — the
// minimum the cost model admits.
const wildcardCost = 1

// KeywordWeight is the node cost of keyword leaves. It balances coverage
// against conciseness: missing a keyword costs 8 while each extra content
// node in an answer costs 1, so an answer may carry up to 7 nodes of
// surrounding context per keyword it covers before a smaller partial
// answer overtakes it.
const KeywordWeight = 8

// Option configures a Search.
type Option func(*Search)

// WithK sets the number of results (default 10).
func WithK(k int) Option { return func(s *Search) { s.k = k } }

// Search is a prepared keyword query.
type Search struct {
	dict     dict.Dict
	keywords []string
	query    *tree.Tree
	k        int
}

// Result is one ranked answer subtree.
type Result struct {
	// Score is the tree edit distance between the keyword query and the
	// subtree; lower is better. A subtree containing all keywords and
	// nothing else scores 0 or 1 (the wildcard rename).
	Score float64
	// Missing lists the keywords that do not occur in the subtree.
	Missing []string
	// Pos is the 1-based postorder position of the subtree root.
	Pos int
	// Tree is the matched subtree.
	Tree *tree.Tree
}

// New prepares a keyword search over documents interned in d — pass
// Matcher.Dict() of the tasm.Matcher that parsed (or will stream) the
// documents. At least one keyword is required.
func New(d dict.Dict, keywords []string, opts ...Option) (*Search, error) {
	if len(keywords) == 0 {
		return nil, fmt.Errorf("keyword: at least one keyword required")
	}
	root := tree.NewNode(WildcardLabel)
	for _, kw := range keywords {
		if kw == "" {
			return nil, fmt.Errorf("keyword: empty keyword")
		}
		root.AddChild(tree.NewNode(kw))
	}
	s := &Search{
		dict:     d,
		keywords: append([]string(nil), keywords...),
		query:    tree.FromNode(d, root),
		k:        10,
	}
	for _, o := range opts {
		o(s)
	}
	if s.k < 1 {
		return nil, fmt.Errorf("keyword: k must be ≥ 1, got %d", s.k)
	}
	return s, nil
}

// Query returns the star query the keywords were compiled into.
func (s *Search) Query() *tree.Tree { return s.query }

// model returns the cost model: the wildcard root at the Definition 4
// minimum (its rename is as cheap as the model admits), keyword leaves at
// KeywordWeight (missing one is expensive), everything else unit.
func (s *Search) model() (cost.Model, error) {
	table := map[string]float64{WildcardLabel: wildcardCost}
	for _, kw := range s.keywords {
		table[kw] = KeywordWeight
	}
	return cost.NewPerLabel(table, 1)
}

// Run executes the search over a streaming document.
func (s *Search) Run(doc postorder.Queue) ([]Result, error) {
	model, err := s.model()
	if err != nil {
		return nil, err
	}
	matches, err := core.PostorderStream(s.query, doc, s.k, core.Options{Model: model})
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(matches))
	for i, m := range matches {
		out[i] = Result{
			Score:   m.Dist,
			Pos:     m.Pos,
			Tree:    m.Tree,
			Missing: s.missing(m.Tree),
		}
	}
	return out, nil
}

// RunTree executes the search over a memory-resident document.
func (s *Search) RunTree(doc *tree.Tree) ([]Result, error) {
	return s.Run(postorder.FromTree(doc))
}

// missing returns the keywords that have no exactly labeled node in t.
func (s *Search) missing(t *tree.Tree) []string {
	if t == nil {
		return nil
	}
	present := map[string]bool{}
	for i := 0; i < t.Size(); i++ {
		present[t.Label(i)] = true
	}
	var out []string
	for _, kw := range s.keywords {
		if !present[kw] {
			out = append(out, kw)
		}
	}
	sort.Strings(out)
	return out
}
