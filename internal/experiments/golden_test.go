package experiments

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_counts.golden from this build")

// TestQuickCountsGolden pins, byte for byte, the counts the paper's
// pruning figures report at Quick(): the Fig. 11 and Fig. 12 tables and
// the ablation's count columns (its seconds depend on the host and are
// left out). They depend only on the generators, the seed and which
// subtrees the scan evaluates, so a change to the scan that moves any of
// them changes what the figures reproduce. Rewrite with -update only for
// an intended change of that.
func TestQuickCountsGolden(t *testing.T) {
	cfg := Quick()
	var sb strings.Builder
	if _, err := Fig11(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig12(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	a, err := Ablation(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "\nAblation counts\n")
	fmt.Fprintf(&sb, "TED nodes with τ' %d, without τ' %d\n", a.TauPrimeNodesWith, a.TauPrimeNodesWithout)
	fmt.Fprintf(&sb, "ring buffer %d, simple peak %d, document nodes %d, candidates %d\n",
		a.RingBufferCap, a.SimplePeak, a.DocumentNodes, a.CandidateSubtree)
	got := sb.String()

	path := filepath.Join("testdata", "quick_counts.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got != string(want) {
		t.Errorf("Quick() figure counts changed:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
