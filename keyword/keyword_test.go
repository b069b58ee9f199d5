package keyword

import (
	"strings"
	"testing"

	"tasm/internal/dict"
	"tasm/internal/tree"
)

// library is a document where the keywords {Knuth, 1968} co-occur in one
// small subtree and are scattered elsewhere.
func library(t testing.TB, d dict.Dict) *tree.Tree {
	t.Helper()
	return tree.MustParse(d,
		"{library"+
			"{book{author{Knuth}}{title{TAOCP}}{year{1968}}}"+
			"{book{author{Lovelace}}{title{Notes}}{year{1843}}}"+
			"{shelf{box{Knuth}}{crate{misc{other{deep{1968}}}}}}"+
			"{journal{title{CACM}}{year{1968}}}}")
}

func TestCoOccurrenceWins(t *testing.T) {
	d := dict.New()
	doc := library(t, d)
	s, err := New(d, []string{"Knuth", "1968"}, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunTree(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	best := res[0]
	if len(best.Missing) != 0 {
		t.Errorf("best result misses %v", best.Missing)
	}
	// The best answer must be the small book subtree containing both
	// keywords, not the scattered shelf or the whole library.
	if !strings.Contains(best.Tree.String(), "Knuth") || !strings.Contains(best.Tree.String(), "1968") {
		t.Errorf("best result %s does not cover the keywords", best.Tree)
	}
	if best.Tree.Size() > 10 {
		t.Errorf("best result has %d nodes; keyword search must prefer concise subtrees", best.Tree.Size())
	}
	// Results must be sorted by score.
	for i := 1; i < len(res); i++ {
		if res[i].Score < res[i-1].Score {
			t.Errorf("results not sorted at %d", i)
		}
	}
}

func TestMissingKeywordsReported(t *testing.T) {
	d := dict.New()
	doc := tree.MustParse(d, "{a{x{Knuth}}{y{other}}}")
	s, err := New(d, []string{"Knuth", "absent"}, WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunTree(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	if len(res[0].Missing) != 1 || res[0].Missing[0] != "absent" {
		t.Errorf("Missing = %v, want [absent]", res[0].Missing)
	}
	// A missing keyword costs at least its deletion: score ≥ 1.
	if res[0].Score < 1 {
		t.Errorf("score %g too low for a result missing a keyword", res[0].Score)
	}
}

func TestPerfectCoverScoresLow(t *testing.T) {
	d := dict.New()
	// The subtree {z{k1}{k2}} is exactly the query shape up to the root
	// label: score = wildcard rename = 1.
	doc := tree.MustParse(d, "{root{z{k1}{k2}}{noise{n1}{n2}{n3}}}")
	s, err := New(d, []string{"k1", "k2"}, WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunTree(doc)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Score != 1 {
		t.Errorf("score = %g, want 1 (wildcard rename only)", res[0].Score)
	}
	if res[0].Tree.String() != "{z{k1}{k2}}" {
		t.Errorf("best = %s", res[0].Tree)
	}
}

func TestValidation(t *testing.T) {
	d := dict.New()
	if _, err := New(d, nil); err == nil {
		t.Error("empty keyword set accepted")
	}
	if _, err := New(d, []string{""}); err == nil {
		t.Error("empty keyword accepted")
	}
	if _, err := New(d, []string{"x"}, WithK(0)); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestQueryShape(t *testing.T) {
	d := dict.New()
	s, err := New(d, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	q := s.Query()
	if q.Size() != 4 {
		t.Errorf("query size = %d, want 4", q.Size())
	}
	if q.Label(q.Root()) != WildcardLabel {
		t.Errorf("root label = %q", q.Label(q.Root()))
	}
	if q.Fanout(q.Root()) != 3 {
		t.Errorf("root fanout = %d, want 3", q.Fanout(q.Root()))
	}
}
