package corpus

// Crash-safety property tests: for EVERY scripted crash point inside an
// ingest or a removal, reopening the corpus directory must yield a
// corpus whose answers are byte-identical to either the pre-operation or
// the post-operation state — never a torn third state, and never an
// unopenable directory. The crashinject harness makes the sweep
// deterministic and exhaustive.

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"tasm/internal/atomicio"
	"tasm/internal/crashinject"
	"tasm/internal/dict"
	"tasm/internal/tree"
)

// quietLogger suppresses the scrub/quarantine warnings these tests
// provoke on purpose.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// copyDir clones a corpus directory tree for one crash-point trial.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// answer is a Match stripped to its identity-independent fields: document
// ids and generations differ across reconstructed corpora, names and
// ranked positions do not.
type answer struct {
	name string
	pos  int
	dist float64
	size int
	tree string
}

// crashQuery is the fixed probe query every oracle comparison uses.
const crashQuery = "{x{p}{q}}"

// answersAt reopens dir with the real filesystem — the recovery path a
// restarted process takes — and returns its TopK answers.
func answersAt(t *testing.T, dir string) []answer {
	t.Helper()
	c, err := Open(dir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("reopening %s: %v", dir, err)
	}
	return answersOf(t, c)
}

// answersOf returns c's TopK answers to the probe query.
func answersOf(t *testing.T, c *Corpus) []answer {
	t.Helper()
	q, err := c.ParseBracket(crashQuery)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := c.TopK(context.Background(), q, 8)
	if err != nil {
		t.Fatalf("TopK after reopen: %v", err)
	}
	out := make([]answer, len(ms))
	for i, m := range ms {
		out[i] = answer{name: m.Doc.Name, pos: m.Pos, dist: m.Dist, size: m.Size, tree: m.Tree.String()}
	}
	return out
}

func sameAnswers(a, b []answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildBaseline creates a two-document corpus directory.
func buildBaseline(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	c, err := Open(dir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct{ name, s string }{
		{"a", "{r{x{p}{q}}{y}}"},
		{"c", "{r{w}{y{q}}}"},
	} {
		tr, err := c.ParseBracket(d.s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddTree(d.name, tr); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// sweepCrashPoints runs op against a fresh copy of base at every crash
// point until op survives a full disarmed... rather, until the armed
// step exceeds op's step count, asserting after each crash that the
// reopened corpus answers exactly pre or post.
// minPoints guards against the sweep becoming vacuous (e.g. an op that
// stops routing its writes through the injected FS would "survive" every
// crash point). Note the sweep may end before the op's literal last
// step: once a crash lands only in best-effort cleanup whose errors the
// op swallows (file GC after a committed manifest), the op returns nil
// and the loop exits — correctly, because the commit already happened.
func sweepCrashPoints(t *testing.T, base string, pre, post []answer, minPoints int, op func(*Corpus) error) {
	t.Helper()
	inj := crashinject.New(atomicio.OS)
	swept := 0
	for at := 0; ; at++ {
		dir := t.TempDir()
		copyDir(t, base, dir)
		c, err := Open(dir, WithFS(inj), WithLogger(quietLogger()))
		if err != nil {
			t.Fatalf("crash point %d: opening the baseline copy: %v", at, err)
		}
		inj.Arm(at)
		opErr := op(c)
		inj.Disarm()
		if opErr == nil {
			// The armed step exceeded the operation's step count: the op
			// ran crash-free, the sweep is complete.
			if got := answersAt(t, dir); !sameAnswers(got, post) {
				t.Fatalf("crash-free run: answers %v, want post state %v", got, post)
			}
			break
		}
		if !errors.Is(opErr, crashinject.ErrCrash) {
			t.Fatalf("crash point %d: op failed with %v, want a simulated crash", at, opErr)
		}
		got := answersAt(t, dir)
		if !sameAnswers(got, pre) && !sameAnswers(got, post) {
			t.Fatalf("crash point %d: reopened corpus answers a torn third state:\n got %v\n pre %v\npost %v",
				at, got, pre, post)
		}
		swept++
	}
	if swept < minPoints {
		t.Fatalf("swept only %d crash points, want ≥ %d; the commit protocol has more steps than that", swept, minPoints)
	}
	t.Logf("swept %d crash points", swept)
}

// TestCrashPointsIngest: every crash point of AddTree recovers to the
// pre-ingest corpus (possibly after sweeping debris) or the fully
// ingested one.
func TestCrashPointsIngest(t *testing.T) {
	base := buildBaseline(t)
	pre := answersAt(t, base)

	committed := t.TempDir()
	copyDir(t, base, committed)
	newDoc := func(c *Corpus) error {
		tr := tree.MustParse(dict.New(), "{r{x{p}{q}}{z{p}}}")
		_, err := c.AddTree("b", tr)
		return err
	}
	cc, err := Open(committed, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	if err := newDoc(cc); err != nil {
		t.Fatal(err)
	}
	post := answersAt(t, committed)
	if sameAnswers(pre, post) {
		t.Fatal("test is vacuous: ingest does not change the probe query's answers")
	}

	// Two durable commits (store, manifest) at ~9 steps each.
	sweepCrashPoints(t, base, pre, post, 16, newDoc)
}

// TestCrashPointsRemove: every crash point of Remove recovers to the
// corpus with the document still present or fully gone.
func TestCrashPointsRemove(t *testing.T) {
	base := buildBaseline(t)
	pre := answersAt(t, base)

	committed := t.TempDir()
	copyDir(t, base, committed)
	cc, err := Open(committed, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Remove("a"); err != nil {
		t.Fatal(err)
	}
	post := answersAt(t, committed)
	if sameAnswers(pre, post) {
		t.Fatal("test is vacuous: removal does not change the probe query's answers")
	}

	// One durable manifest commit; the trailing file GC swallows crashes.
	sweepCrashPoints(t, base, pre, post, 8, func(c *Corpus) error {
		return c.Remove("a")
	})
}
