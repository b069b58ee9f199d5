package tasm

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"weak"

	"tasm/internal/postorder"
	"tasm/internal/race"
)

const sampleXML = `<dblp>
  <article><author>John Smith</author><title>Tree Matching at Scale</title><year>2008</year></article>
  <article><author>Mary Jones</author><title>Approximate XML Joins</title><year>2007</year></article>
  <inproceedings><author>Peter Novak</author><title>Top-k Queries</title><booktitle>ICDE</booktitle></inproceedings>
  <book><author>Anna Weber</author><title>Databases</title><publisher>X</publisher></book>
</dblp>`

func TestTopKOnXML(t *testing.T) {
	ctx := context.Background()
	m := New()
	doc, err := m.ParseXML(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	q, err := m.ParseBracket("{article{author{John Smith}}{title{Tree Matching at Scale}}{year{2008}}}")
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.TopK(ctx, q, doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d matches", len(got))
	}
	if got[0].Dist != 0 {
		t.Errorf("best match dist = %g, want exact match", got[0].Dist)
	}
	if got[0].Tree.Label(got[0].Tree.Root()) != "article" {
		t.Errorf("best match root = %s", got[0].Tree.Label(got[0].Tree.Root()))
	}
	if got[1].Dist <= 0 {
		t.Errorf("second match dist = %g, want > 0", got[1].Dist)
	}
}

func TestTopKStreamMatchesTopK(t *testing.T) {
	ctx := context.Background()
	m := New()
	doc, err := m.ParseXML(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	q, err := m.ParseBracket("{article{author}{title}}")
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := m.TopK(ctx, q, doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := m.TopKStream(ctx, q, m.XMLQueue(strings.NewReader(sampleXML)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(inMem) != len(stream) {
		t.Fatalf("lengths differ: %d vs %d", len(inMem), len(stream))
	}
	for i := range inMem {
		if inMem[i].Dist != stream[i].Dist || inMem[i].Pos != stream[i].Pos {
			t.Errorf("rank %d: in-memory (%g,%d) vs stream (%g,%d)",
				i, inMem[i].Dist, inMem[i].Pos, stream[i].Dist, stream[i].Pos)
		}
	}
}

func TestDynamicAgrees(t *testing.T) {
	ctx := context.Background()
	m := New()
	doc, err := m.ParseXML(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	q, err := m.ParseBracket("{book{author}{title}}")
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.TopK(ctx, q, doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.TopKDynamic(q, doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Dist != b[i].Dist {
			t.Errorf("rank %d: postorder %g vs dynamic %g", i, a[i].Dist, b[i].Dist)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	m := New()
	doc, err := m.ParseXML(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveStore(&buf, doc); err != nil {
		t.Fatal(err)
	}
	q, err := m.ParseBracket("{article{author}{title}}")
	if err != nil {
		t.Fatal(err)
	}
	queue, err := m.OpenStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := m.TopKStream(ctx, q, queue, 2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.TopK(ctx, q, doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if direct[i].Dist != fromStore[i].Dist || direct[i].Pos != fromStore[i].Pos {
			t.Errorf("rank %d differs between direct and store-backed runs", i)
		}
	}
}

func TestSaveStoreRejectsForeignTree(t *testing.T) {
	m1, m2 := New(), New()
	doc, err := m1.ParseBracket("{a{b}}")
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.SaveStore(&bytes.Buffer{}, doc); err == nil {
		t.Error("saving a tree from another matcher should error")
	}
}

func TestDistanceAndTau(t *testing.T) {
	m := New()
	a, _ := m.ParseBracket("{a{b}{c}}")
	b, _ := m.ParseBracket("{x{a{b}{d}}{a{b}{c}}}")
	if got := m.Distance(a, b); got != 4 {
		t.Errorf("Distance = %g, want 4 (paper Figure 3)", got)
	}
	if got := m.Tau(a, 5); got != 11 {
		t.Errorf("Tau = %d, want 2·3+5 = 11", got)
	}
}

func TestUnitCostConstructor(t *testing.T) {
	m := New(WithCostModel(UnitCost()))
	a, _ := m.ParseBracket("{a}")
	b, _ := m.ParseBracket("{b}")
	if got := m.Distance(a, b); got != 1 {
		t.Errorf("unit distance = %g, want 1", got)
	}
}

func TestCostModelOptions(t *testing.T) {
	pl, err := PerLabelCost(map[string]float64{"title": 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := New(WithCostModel(pl))
	a, _ := m.ParseBracket("{article{title}}")
	b, _ := m.ParseBracket("{article}")
	// Deleting title costs 3; renaming it into nothing is not possible, but
	// the optimal mapping may rename article→title etc. — just assert > 1.
	if got := m.Distance(a, b); got <= 1 {
		t.Errorf("Distance under per-label costs = %g, want > 1", got)
	}

	fw, err := FanoutWeightedCost(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(WithCostModel(fw), WithDocumentCostBound(50))
	q, _ := m2.ParseBracket("{a{b}}")
	if m2.Tau(q, 1) < 2*q.Size()+1 {
		t.Errorf("Tau with fanout model too small: %d", m2.Tau(q, 1))
	}
}

func TestFromNode(t *testing.T) {
	m := New()
	tr := m.FromNode(NewNode("a", NewNode("b"), NewNode("c")))
	if tr.Size() != 3 || tr.String() != "{a{b}{c}}" {
		t.Errorf("FromNode = %s", tr)
	}
}

func TestProbeViaPublicAPI(t *testing.T) {
	ctx := context.Background()
	m := New()
	doc, _ := m.ParseXML(strings.NewReader(sampleXML))
	q, _ := m.ParseBracket("{article{author}{title}}")
	p := &recordingProbe{}
	m.SetProbe(p)
	if _, err := m.TopK(ctx, q, doc, 1); err != nil {
		t.Fatal(err)
	}
	if p.candidates == 0 || p.relevant == 0 {
		t.Errorf("probe saw %d candidates, %d relevant subtrees", p.candidates, p.relevant)
	}
	m.SetProbe(nil)
	if _, err := m.TopK(ctx, q, doc, 1); err != nil {
		t.Fatal(err)
	}
}

type recordingProbe struct{ relevant, candidates, pruned int }

func (p *recordingProbe) RelevantSubtree(int) { p.relevant++ }
func (p *recordingProbe) Candidate(int)       { p.candidates++ }
func (p *recordingProbe) Pruned(int)          { p.pruned++ }

func TestWriteXMLRoundTrip(t *testing.T) {
	m := New()
	doc, err := m.ParseXML(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := m.WriteXML(&sb, doc); err != nil {
		t.Fatal(err)
	}
	again, err := New().ParseXML(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, sb.String())
	}
	if !doc.Equal(again) {
		t.Error("WriteXML round trip changed the tree")
	}
}

func TestTopKBatch(t *testing.T) {
	ctx := context.Background()
	m := New()
	doc, err := m.ParseXML(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := m.ParseBracket("{article{author}{title}}")
	q2, _ := m.ParseBracket("{book{author{Anna Weber}}}")
	items, err := CollectQueue(m.XMLQueue(strings.NewReader(sampleXML)))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := m.TopKBatch(ctx, []*Tree{q1, q2}, NewSliceQueue(items), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("got %d result sets", len(batch))
	}
	for i, q := range []*Tree{q1, q2} {
		single, err := m.TopK(ctx, q, doc, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(single) != len(batch[i]) {
			t.Fatalf("query %d: %d vs %d matches", i, len(batch[i]), len(single))
		}
		for j := range single {
			if single[j].Dist != batch[i][j].Dist {
				t.Errorf("query %d rank %d: %g vs %g", i, j, batch[i][j].Dist, single[j].Dist)
			}
		}
	}
}

// TestOpenCorpus exercises the corpus entry point re-exported at the
// package root: ingest through the public API, query across documents,
// and agree with a per-document Matcher scan.
func TestOpenCorpus(t *testing.T) {
	ctx := context.Background()
	c, err := OpenCorpus(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddXML("dblp", strings.NewReader(sampleXML)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddXML("other", strings.NewReader(`<shop><item><price>3</price></item></shop>`)); err != nil {
		t.Fatal(err)
	}
	q, err := c.ParseBracket("{article{author}{title}}")
	if err != nil {
		t.Fatal(err)
	}
	matches, err := c.TopK(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Fatalf("got %d matches, want 3", len(matches))
	}

	m := New()
	mq, _ := m.ParseBracket("{article{author}{title}}")
	doc, err := m.ParseXML(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	single, err := m.TopK(ctx, mq, doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The dblp document dominates the ranking for this query, so the
	// corpus-wide distances must match the single-document run.
	for i := range matches {
		if matches[i].Dist != single[i].Dist || matches[i].Doc.Name != "dblp" {
			t.Fatalf("rank %d: corpus %+v vs single %+v", i, matches[i], single[i])
		}
	}
}

// TestMatcherReusesScratch pins that a Matcher keeps its scan state
// across runs: a warm TopK, TopKStream or TopKBatch allocates its answer
// and a few per-query objects, not a fresh distance memo (56 KiB alone).
func TestMatcherReusesScratch(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	ctx := context.Background()
	m := New()
	doc, err := m.ParseXML(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	q, err := m.ParseBracket("{article{author}{title}}")
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"TopK": func() error { _, err := m.TopK(ctx, q, doc, 3); return err },
		"TopKStream": func() error {
			_, err := m.TopKStream(ctx, q, postorder.FromTree(doc), 3)
			return err
		},
		"TopKBatch": func() error {
			_, err := m.TopKBatch(ctx, []*Tree{q, q}, postorder.FromTree(doc), 3)
			return err
		},
	} {
		if err := run(); err != nil { // warm the scratch
			t.Fatal(err)
		}
		const rounds = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range rounds {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / rounds
		t.Logf("%s on a %d-node document: %d B per run", name, doc.Size(), perRun)
		if perRun > 16<<10 {
			t.Errorf("%s allocates %d B per warm run: the Matcher's scan state is rebuilt per run", name, perRun)
		}
	}
	// The kept state holds no document stream once a run returns.
	stream := postorder.NewSliceQueue(postorder.Items(doc))
	ref := weak.Make(stream)
	if _, err := m.TopKStream(ctx, q, stream, 3); err != nil {
		t.Fatal(err)
	}
	stream = nil
	runtime.GC()
	if ref.Value() != nil {
		t.Error("the Matcher keeps the last stream it scanned reachable")
	}
	runtime.KeepAlive(m)
}
