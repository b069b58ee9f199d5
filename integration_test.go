package tasm

// End-to-end integration tests: the full pipeline a production deployment
// would run — generate → persist → profile → stream-match — with every
// path (XML, binary store, in-memory, a corpus split across ranges)
// required to agree.

import (
	"bytes"
	"context"
	"math/rand"
	"os/exec"
	"strings"
	"testing"

	"tasm/internal/datagen"
	"tasm/internal/stats"
)

func TestPipelineAllPathsAgree(t *testing.T) {
	ctx := context.Background()
	m := New()

	// 1. Generate a corpus and keep its postorder items.
	items, err := CollectQueue(datagen.DBLP(800).Queue(m.Dict(), 11))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := m.BuildTree(NewSliceQueue(items))
	if err != nil {
		t.Fatal(err)
	}

	// 2. Persist to the binary store and to XML.
	var store bytes.Buffer
	if err := m.SaveStore(&store, doc); err != nil {
		t.Fatal(err)
	}
	var xmlBuf strings.Builder
	if err := writeXMLForTest(&xmlBuf, doc); err != nil {
		t.Fatal(err)
	}

	// 3. Profile the store: it must describe the same document.
	p, err := stats.Compute(NewSliceQueue(items))
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes != doc.Size() || p.RootFanout != 800 {
		t.Fatalf("profile %+v does not match document (%d nodes)", p, doc.Size())
	}

	// 4. Query through every path.
	rng := rand.New(rand.NewSource(11))
	q, err := datagen.QueryFromDocument(doc, rng, 12)
	if err != nil {
		t.Fatal(err)
	}
	const k = 7

	inMem, err := m.TopK(ctx, q, doc, k)
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := m.TopKDynamic(q, doc, k)
	if err != nil {
		t.Fatal(err)
	}
	storeQ, err := m.OpenStore(bytes.NewReader(store.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := m.TopKStream(ctx, q, storeQ, k)
	if err != nil {
		t.Fatal(err)
	}
	fromXML, err := m.TopKStream(ctx, q, m.XMLQueue(strings.NewReader(xmlBuf.String())), k)
	if err != nil {
		t.Fatal(err)
	}
	// The corpus path: a corpus holding the document, scanned from its
	// resident columns.
	c, err := OpenCorpus(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTree("dblp", doc); err != nil {
		t.Fatal(err)
	}
	cq, err := c.ImportTree(q)
	if err != nil {
		t.Fatal(err)
	}
	corpusMatches, err := c.TopK(ctx, cq, k)
	if err != nil {
		t.Fatal(err)
	}
	fromCorpus := make([]Match, len(corpusMatches))
	for i, cm := range corpusMatches {
		fromCorpus[i] = Match{Dist: cm.Dist, Pos: cm.Pos, Size: cm.Size, Tree: cm.Tree}
	}

	paths := map[string][]Match{
		"dynamic": dynamic, "store": fromStore, "xml": fromXML, "corpus": fromCorpus,
	}
	for name, got := range paths {
		if len(got) != len(inMem) {
			t.Fatalf("%s: %d matches vs %d", name, len(got), len(inMem))
		}
		for i := range got {
			if got[i].Dist != inMem[i].Dist {
				t.Fatalf("%s: rank %d distance %g vs %g", name, i, got[i].Dist, inMem[i].Dist)
			}
		}
	}

	// 5. The best match must carry a valid tree whose distance matches.
	best := inMem[0]
	if best.Tree == nil {
		t.Fatal("best match has no tree")
	}
	if err := best.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := m.Distance(q, best.Tree); d != best.Dist {
		t.Fatalf("recomputed distance %g != reported %g", d, best.Dist)
	}
	// And the edit script must realize exactly that distance.
	var sum float64
	for _, op := range m.EditScript(q, best.Tree) {
		sum += op.Cost
	}
	if sum != best.Dist {
		t.Fatalf("edit script cost %g != distance %g", sum, best.Dist)
	}
}

// writeXMLForTest serializes through the public API.
func writeXMLForTest(w *strings.Builder, doc *Tree) error {
	return New().WriteXML(w, doc)
}

// TestExamplesCompileAndRun smoke-tests every example main. Guarded by
// -short because each `go run` pays a build.
func TestExamplesCompileAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example execution in -short mode")
	}
	for _, ex := range []string{"quickstart", "dblp", "xmark", "streaming", "keyword"} {
		ex := ex
		t.Run(ex, func(t *testing.T) {
			out, err := exec.Command("go", "run", "./examples/"+ex).CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", ex, err, out)
			}
			if len(out) == 0 {
				t.Errorf("example %s produced no output", ex)
			}
		})
	}
}
