package corpus

// Tests for the integrity scrub: flip-a-byte quarantine equivalence (the
// acceptance property of the checksummed format), stores that cannot be
// loaded, the Open-time orphan sweep, the explicit Verify pass, strict
// mode, and AddTree's error-path cleanup.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tasm/internal/atomicio"
	"tasm/internal/dict"
	"tasm/internal/docstore"
	"tasm/internal/postorder"
	"tasm/internal/testenv"
	"tasm/internal/tree"
)

// buildVictimCorpus creates a three-document corpus and returns its
// directory plus the middle document's manifest entry — the document the
// tests corrupt.
func buildVictimCorpus(t *testing.T) (string, DocInfo) {
	t.Helper()
	dir := t.TempDir()
	c, err := Open(dir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	var victim DocInfo
	for _, d := range []struct{ name, s string }{
		{"a", "{r{x{p}{q}}{y}}"},
		{"b", "{r{x{p}{q}}{z{p}}}"},
		{"c", "{r{w}{y{q}}}"},
	} {
		tr, err := c.ParseBracket(d.s)
		if err != nil {
			t.Fatal(err)
		}
		info, err := c.AddTree(d.name, tr)
		if err != nil {
			t.Fatal(err)
		}
		if d.name == "b" {
			victim = info
		}
	}
	return dir, victim
}

// answersWithoutVictim returns the probe query's answers over the corpus
// buildVictimCorpus builds, without its victim: what the survivors must
// answer once the victim is quarantined.
func answersWithoutVictim(t *testing.T) []answer {
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
	return answersOf(t, c)
}

// damagedCopy copies the corpus at base into a fresh directory with the
// file at rel replaced by data, and returns the directory.
func damagedCopy(t *testing.T, base, rel string, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	copyDir(t, base, dir)
	if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestScrubFlipAnyByteQuarantines is the acceptance property of the
// checksummed store: flipping ANY single byte of a document's store is
// detected at Open, quarantines exactly that document, and leaves the
// survivors answering byte-identically to a corpus that never held the
// victim. Every byte offset is swept; under TASM_QUICK (the CI -race
// configuration) the sweep samples every seventh offset with a single bit
// pattern instead.
func TestScrubFlipAnyByteQuarantines(t *testing.T) {
	base, victim := buildVictimCorpus(t)
	stride, bits := 1, []byte{0x01, 0xff}
	if testenv.Quick() {
		stride, bits = 7, []byte{0xff}
	}

	oracle := answersWithoutVictim(t)

	rel := victim.Store
	data, err := os.ReadFile(filepath.Join(base, rel))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i += stride {
		for _, bit := range bits {
			mut := append([]byte(nil), data...)
			mut[i] ^= bit
			c, err := Open(damagedCopy(t, base, rel, mut), WithLogger(quietLogger()))
			if err != nil {
				t.Fatalf("%s byte %d xor %#x: Open failed: %v (scrub mode must quarantine, not fail)", rel, i, bit, err)
			}
			if got := c.Quarantined(); got != 1 {
				t.Fatalf("%s byte %d xor %#x: Quarantined() = %d, want 1 — the flip went undetected", rel, i, bit, got)
			}
			if got := answersOf(t, c); !sameAnswers(got, oracle) {
				t.Fatalf("%s byte %d xor %#x: survivors answer %v, oracle without victim answers %v", rel, i, bit, got, oracle)
			}
		}
	}
}

// TestScrubQuarantineMovesFiles: quarantined documents' files land in
// quarantine/ for the operator, the manifest drops the document under a
// bumped generation, and the quarantine survives (is not re-counted by)
// a further reopen.
func TestScrubQuarantineMovesFiles(t *testing.T) {
	dir, victim := buildVictimCorpus(t)
	genBefore := func() uint64 {
		c, err := Open(dir, WithLogger(quietLogger()))
		if err != nil {
			t.Fatal(err)
		}
		return c.Generation()
	}()
	storePath := filepath.Join(dir, victim.Store)
	data, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(storePath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := Open(dir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Quarantined() != 1 || c.Len() != 2 {
		t.Fatalf("Quarantined = %d, Len = %d; want 1 and 2", c.Quarantined(), c.Len())
	}
	if c.Generation() <= genBefore {
		t.Errorf("generation %d not bumped past %d by quarantine", c.Generation(), genBefore)
	}
	qstore := filepath.Join(dir, quarantineDir, filepath.Base(victim.Store))
	if _, err := os.Stat(qstore); err != nil {
		t.Errorf("quarantined store not preserved at %s: %v", qstore, err)
	}
	if _, err := os.Stat(storePath); !os.IsNotExist(err) {
		t.Errorf("corrupt store still present in docs/: err=%v", err)
	}

	// Reopen: the count is stable, nothing new to quarantine.
	c2, err := Open(dir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Quarantined() != 1 || c2.Len() != 2 {
		t.Fatalf("after reopen: Quarantined = %d, Len = %d; want 1 and 2", c2.Quarantined(), c2.Len())
	}
}

// TestVerifyMethodScrubsLiveCorpus: corruption that lands while the
// corpus is serving is caught by an explicit Verify pass, which reports
// the quarantined document by name.
func TestVerifyMethodScrubsLiveCorpus(t *testing.T) {
	dir, victim := buildVictimCorpus(t)
	c, err := Open(dir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 3 || len(rep.Quarantined) != 0 {
		t.Fatalf("clean corpus: report %+v, want 3 checked, none quarantined", rep)
	}

	path := filepath.Join(dir, victim.Store)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01 // trailer byte: CRC mismatch
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err = c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "b" {
		t.Fatalf("report.Quarantined = %v, want [b]", rep.Quarantined)
	}
	if c.Quarantined() != 1 || c.Len() != 2 {
		t.Fatalf("Quarantined = %d, Len = %d; want 1 and 2", c.Quarantined(), c.Len())
	}
}

// TestVerifyStrictFailsOpen: strict mode refuses to open a damaged
// corpus instead of quarantining.
func TestVerifyStrictFailsOpen(t *testing.T) {
	dir, victim := buildVictimCorpus(t)
	path := filepath.Join(dir, victim.Store)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, WithVerifyMode(VerifyStrict), WithLogger(quietLogger())); err == nil {
		t.Fatal("strict Open of a corrupt corpus succeeded")
	}
	// The files must be untouched: strict mode diagnoses, never moves.
	if _, err := os.Stat(path); err != nil {
		t.Errorf("strict mode moved or removed the corrupt store: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir)); !os.IsNotExist(err) {
		t.Errorf("strict mode created a quarantine directory: err=%v", err)
	}
}

// TestOpenSweepsOrphans: temp files and committed-but-unreferenced files
// in docs/ (crash debris, or a profile file an earlier version wrote) are
// removed at Open; referenced files survive.
func TestOpenSweepsOrphans(t *testing.T) {
	dir, victim := buildVictimCorpus(t)
	junk := []string{
		filepath.Join(dir, atomicio.TempPrefix+"12345"),
		filepath.Join(dir, docsDir, atomicio.TempPrefix+"999"),
		filepath.Join(dir, docsDir, "99.store"),
		filepath.Join(dir, docsDir, "99.profile"),
	}
	for _, p := range junk {
		if err := os.WriteFile(p, []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(dir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range junk {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived Open: err=%v", p, err)
		}
	}
	if c.Len() != 3 || c.Quarantined() != 0 {
		t.Fatalf("Len = %d, Quarantined = %d; the sweep must not touch referenced documents", c.Len(), c.Quarantined())
	}
	if _, err := os.Stat(filepath.Join(dir, victim.Store)); err != nil {
		t.Errorf("referenced store swept: %v", err)
	}
}

// failNthCreate is an atomicio.FS that fails the n-th CreateTemp call
// (1-based) and passes everything else through — a clean injection of
// "the store write failed" or "the manifest write failed" that, unlike
// a crash, leaves the process alive to run its cleanup path.
type failNthCreate struct {
	atomicio.FS
	n     int
	calls int
}

func (f *failNthCreate) CreateTemp(dir, pattern string) (atomicio.File, error) {
	f.calls++
	if f.calls == f.n {
		return nil, fmt.Errorf("injected CreateTemp failure #%d", f.n)
	}
	return f.FS.CreateTemp(dir, pattern)
}

// docsDirFiles lists the docs/ directory's file names.
func docsDirFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, docsDir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestAddTreeCleansUpOnManifestFailure: if the manifest commit fails
// after the store committed, AddTree unlinks the store.
func TestAddTreeCleansUpOnManifestFailure(t *testing.T) {
	dir := t.TempDir()
	// CreateTemp #1 initial manifest; #2 store; #3 manifest.
	c, err := Open(dir, WithFS(&failNthCreate{FS: atomicio.OS, n: 3}), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.MustParse(dict.New(), "{r{x}{y}}")
	if _, err := c.AddTree("doc", tr); err == nil {
		t.Fatal("AddTree with failing manifest write succeeded")
	}
	if files := docsDirFiles(t, dir); len(files) != 0 {
		t.Errorf("docs/ holds %v after a failed ingest; the error path must unlink the store", files)
	}
	if _, err := c.AddTree("doc", tr); err != nil {
		t.Fatalf("re-ingest after failure: %v", err)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	// The recovered corpus reopens cleanly with nothing to sweep or
	// quarantine.
	c2, err := Open(dir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 || c2.Quarantined() != 0 {
		t.Errorf("reopen: Len = %d, Quarantined = %d; want 1, 0", c2.Len(), c2.Quarantined())
	}
}

// TestLegacyFilesQuarantined: the unchecksummed store format of early
// builds is not read. A v1 store (magic "TASMPQ1\n", no trailer) and a
// checksummed store whose version byte was flipped to 1 are each corrupt
// like any other unreadable file: quarantined under scrub, and strict
// Open fails over them.
func TestLegacyFilesQuarantined(t *testing.T) {
	base, victim := buildVictimCorpus(t)
	store, err := os.ReadFile(filepath.Join(base, victim.Store))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(store), "TASMPQ2\n") {
		t.Fatalf("a fresh store is not in the checksummed format: %q", store[:8])
	}
	flipped := bytes.Clone(store)
	flipped[6] = '1'
	for _, tc := range []struct {
		name, rel string
		data      []byte
	}{
		{"v1 store", victim.Store, append([]byte("TASMPQ1\n"), store[8:len(store)-4]...)},
		{"v2 store with its version byte flipped to 1", victim.Store, flipped},
	} {
		dir := damagedCopy(t, base, tc.rel, tc.data)
		if _, err := Open(dir, WithVerifyMode(VerifyStrict), WithLogger(quietLogger())); err == nil {
			t.Errorf("%s: strict Open succeeded", tc.name)
		}
		c, err := Open(dir, WithLogger(quietLogger()))
		if err != nil {
			t.Fatalf("%s: Open: %v", tc.name, err)
		}
		if c.Quarantined() != 1 || c.Len() != 2 {
			t.Errorf("%s: Quarantined = %d, Len = %d; want 1 and 2", tc.name, c.Quarantined(), c.Len())
		}
	}
}

// TestSplitSubtreeStoreQuarantined: a checksum proves a store's bytes are
// the ones written, not that they form a tree. A store under a valid
// checksum whose sizes split an earlier subtree cannot be decoded into
// columns, the one form a corpus serves a document in, so it is
// quarantined under scrub and with verification off alike, and strict
// Open fails over it. The survivors answer byte-identically to a corpus
// that never held it.
func TestSplitSubtreeStoreQuarantined(t *testing.T) {
	base, victim := buildVictimCorpus(t)
	oracle := answersWithoutVictim(t)
	d := dict.New()
	p := d.Intern("p")
	var split bytes.Buffer
	if err := docstore.WriteItems(&split, d, []postorder.Item{{Label: p, Size: 1}, {Label: p, Size: 2}, {Label: p, Size: 2}}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []VerifyMode{VerifyScrub, VerifyOff, VerifyStrict} {
		c, err := Open(damagedCopy(t, base, victim.Store, split.Bytes()), WithVerifyMode(mode), WithLogger(quietLogger()))
		if mode == VerifyStrict {
			if err == nil {
				t.Error("strict Open over a store that splits a subtree succeeded")
			}
			continue
		}
		if err != nil {
			t.Fatalf("mode %d: Open: %v", mode, err)
		}
		if c.Quarantined() != 1 || c.Len() != 2 {
			t.Fatalf("mode %d: Quarantined = %d, Len = %d; want 1 and 2", mode, c.Quarantined(), c.Len())
		}
		if got := answersOf(t, c); !sameAnswers(got, oracle) {
			t.Fatalf("mode %d: survivors answer %v, oracle without the victim answers %v", mode, got, oracle)
		}
	}
}

// corruptStores is an atomicio.FS that flips a byte in the middle of every
// store file just before the rename that commits it: a store damaged on
// its way to disk, after its writer computed the checksum.
type corruptStores struct{ atomicio.FS }

func (f corruptStores) Rename(oldpath, newpath string) error {
	if strings.HasSuffix(newpath, ".store") {
		data, err := os.ReadFile(oldpath)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(oldpath, data, 0o644); err != nil {
			return err
		}
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestAddTreeRefusesStoreThatDoesNotLoad: AddTree loads the committed
// store back before it commits the manifest, so a manifest entry always
// has a servable store. A store damaged on its way to disk fails that
// load: AddTree returns an error and unlinks what it wrote, leaving the
// manifest and the docs/ listing as they were.
func TestAddTreeRefusesStoreThatDoesNotLoad(t *testing.T) {
	dir, _ := buildVictimCorpus(t)
	manPath := filepath.Join(dir, manifestFile)
	manBefore, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	filesBefore := docsDirFiles(t, dir)
	c, err := Open(dir, WithFS(corruptStores{atomicio.OS}), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTree("d", tree.MustParse(dict.New(), "{r{x}{y}}")); err == nil {
		t.Fatal("AddTree of a store damaged on its way to disk succeeded")
	}
	if manAfter, err := os.ReadFile(manPath); err != nil || !bytes.Equal(manAfter, manBefore) {
		t.Errorf("the manifest changed (err %v):\n got  %s\n want %s", err, manAfter, manBefore)
	}
	if files := docsDirFiles(t, dir); fmt.Sprint(files) != fmt.Sprint(filesBefore) {
		t.Errorf("docs/ holds %v after the failed ingest, want %v", files, filesBefore)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d after the failed ingest, want 3", c.Len())
	}
}
