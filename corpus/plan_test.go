package corpus

import (
	"testing"

	"tasm/internal/tree"
)

// TestPlanLabelNodes: the label-node counts a plan reads off each
// document's label profile — which steer the column scan's candidate gate
// between the label postings and the walk — are exactly the number of
// postings of the query's distinct labels in the document's columns, for
// repeated query labels and for labels only the request overlay knows.
func TestPlanLabelNodes(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]string{
		"a": "{r{x{p}{q}}{y}{x{p}}}",
		"b": "{r{z{p}}{w}}",
		"c": "{x{x{x}}}",
	} {
		tr, err := c.ParseBracket(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddTree(name, tr); err != nil {
			t.Fatal(err)
		}
	}
	var queries []*tree.Tree
	for _, s := range []string{"{x{p}{p}}", "{unseen{x}}", "{w}"} {
		q, err := c.ParseBracket(s)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	st := c.snapshot()
	_, qs := requestOverlay(st, queries)
	var p queryPlan
	if err := c.plan(st, qs, &QueryConfig{}, &p); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range p.docs {
		cols := st.stores[d.info.ID].cols
		for i, q := range qs {
			want, seen := 0, map[int]bool{}
			for _, id := range q.LabelIDs() {
				if !seen[id] {
					seen[id] = true
					want += len(cols.Postings(id))
				}
			}
			total += want
			if got := p.labelNodes[d.slot*len(qs)+i]; got != want {
				t.Errorf("document %s, query %v: plan counts %d label nodes, the postings %d", d.info.Name, q, got, want)
			}
		}
	}
	if total == 0 {
		t.Fatal("no query label occurs in any document: the test checks nothing")
	}
}

// TestPlanAfterRemoveReopen: a document's pq-gram profile is hashed in
// the label ids of the snapshot that reads it. Removing the first
// document and reopening assigns the survivor's labels other ids than
// its ingest did, and a query equal to the survivor must still be at
// pq-gram distance 0 from it.
func TestPlanAfterRemoveReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const b = "{s{t{u}{v}}{w}}"
	for name, doc := range map[string]string{"a": "{r{x{p}{q}}{y}}", "b": b} {
		tr, err := c.ParseBracket(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddTree(name, tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if c, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	q, err := c.ParseBracket(b)
	if err != nil {
		t.Fatal(err)
	}
	st := c.snapshot()
	_, qs := requestOverlay(st, []*tree.Tree{q})
	var p queryPlan
	if err := c.plan(st, qs, &QueryConfig{}, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.docs) != 1 || p.docs[0].pqdist != 0 {
		t.Fatalf("plan %+v; want b alone at pq-gram distance 0", p.docs)
	}
}
