package corpus

// Tests for the integrity scrub: flip-a-byte quarantine equivalence (the
// acceptance property of the checksummed format), the Open-time orphan
// sweep, the explicit Verify pass, strict mode, and AddTree's error-path
// cleanup.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tasm/internal/atomicio"
	"tasm/internal/dict"
	"tasm/internal/pqgram"
	"tasm/internal/testenv"
	"tasm/internal/tree"
	"tasm/internal/varint"
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

// TestScrubFlipAnyByteQuarantines is the acceptance property of PR 8:
// flipping ANY single byte of a document's store or profile file is
// detected at Open, quarantines exactly that document, and leaves the
// survivors answering byte-identically to a corpus that never held the
// victim. Every byte offset of both files is swept; under TASM_QUICK
// (the CI -race configuration) the sweep samples every seventh offset
// with a single bit pattern instead.
func TestScrubFlipAnyByteQuarantines(t *testing.T) {
	base, victim := buildVictimCorpus(t)
	stride, bits := 1, []byte{0x01, 0xff}
	if testenv.Quick() {
		stride, bits = 7, []byte{0xff}
	}

	// Oracle: the same corpus built without the victim document.
	oracleDir := t.TempDir()
	oc, err := Open(oracleDir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct{ name, s string }{
		{"a", "{r{x{p}{q}}{y}}"},
		{"c", "{r{w}{y{q}}}"},
	} {
		tr, err := oc.ParseBracket(d.s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := oc.AddTree(d.name, tr); err != nil {
			t.Fatal(err)
		}
	}
	oracle := answersAt(t, oracleDir)

	for _, rel := range []string{victim.Store, victim.Profile} {
		data, err := os.ReadFile(filepath.Join(base, rel))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(data); i += stride {
			for _, bit := range bits {
				dir := t.TempDir()
				copyDir(t, base, dir)
				mut := append([]byte(nil), data...)
				mut[i] ^= bit
				if err := os.WriteFile(filepath.Join(dir, rel), mut, 0o644); err != nil {
					t.Fatal(err)
				}
				c, err := Open(dir, WithLogger(quietLogger()))
				if err != nil {
					t.Fatalf("%s byte %d xor %#x: Open failed: %v (scrub mode must quarantine, not fail)", rel, i, bit, err)
				}
				if got := c.Quarantined(); got != 1 {
					t.Fatalf("%s byte %d xor %#x: Quarantined() = %d, want 1 — the flip went undetected", rel, i, bit, got)
				}
				q, err := c.ParseBracket(crashQuery)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := c.TopK(context.Background(), q, 8)
				if err != nil {
					t.Fatalf("%s byte %d xor %#x: TopK: %v", rel, i, bit, err)
				}
				got := make([]answer, len(ms))
				for j, m := range ms {
					got[j] = answer{name: m.Doc.Name, pos: m.Pos, dist: m.Dist, size: m.Size, tree: m.Tree.String()}
				}
				if !sameAnswers(got, oracle) {
					t.Fatalf("%s byte %d xor %#x: survivors answer %v, oracle without victim answers %v", rel, i, bit, got, oracle)
				}
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

	path := filepath.Join(dir, victim.Profile)
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

// TestOpenSweepsOrphans: temp files and committed-but-unreferenced
// store/profile files (crash debris) are removed at Open; referenced
// files survive.
func TestOpenSweepsOrphans(t *testing.T) {
	dir, victim := buildVictimCorpus(t)
	junk := []string{
		filepath.Join(dir, atomicio.TempPrefix+"12345"),
		filepath.Join(dir, ".manifest-678.json"),
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
// "the profile write failed" or "the manifest write failed" that, unlike
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

// TestAddTreeCleansUpOnProfileFailure: if the profile write fails after
// the store committed, AddTree unlinks the store on its own error path —
// no debris waits for the next Open's sweep.
func TestAddTreeCleansUpOnProfileFailure(t *testing.T) {
	dir := t.TempDir()
	// CreateTemp #1 is the initial manifest; #2 the store; #3 the profile.
	c, err := Open(dir, WithFS(&failNthCreate{FS: atomicio.OS, n: 3}), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.MustParse(dict.New(), "{r{x}{y}}")
	if _, err := c.AddTree("doc", tr); err == nil {
		t.Fatal("AddTree with failing profile write succeeded")
	}
	if files := docsDirFiles(t, dir); len(files) != 0 {
		t.Errorf("docs/ holds %v after a failed ingest; the error path must unlink the store", files)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after failed ingest, want 0", c.Len())
	}
	// The corpus stays usable: the same name ingests cleanly afterwards.
	if _, err := c.AddTree("doc", tr); err != nil {
		t.Fatalf("re-ingest after failure: %v", err)
	}
}

// TestAddTreeCleansUpOnManifestFailure: if the manifest commit fails
// after both files committed, AddTree unlinks both.
func TestAddTreeCleansUpOnManifestFailure(t *testing.T) {
	dir := t.TempDir()
	// CreateTemp #1 initial manifest; #2 store; #3 profile; #4 manifest.
	c, err := Open(dir, WithFS(&failNthCreate{FS: atomicio.OS, n: 4}), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.MustParse(dict.New(), "{r{x}{y}}")
	if _, err := c.AddTree("doc", tr); err == nil {
		t.Fatal("AddTree with failing manifest write succeeded")
	}
	if files := docsDirFiles(t, dir); len(files) != 0 {
		t.Errorf("docs/ holds %v after a failed ingest; the error path must unlink store and profile", files)
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

// TestV1CorpusStillOpens: a corpus whose store and profile files predate
// the checksummed format (v1 store magic, containerless profile) opens,
// scrubs clean, and serves — the format bump is backward compatible.
func TestV1CorpusStillOpens(t *testing.T) {
	dir, victim := buildVictimCorpus(t)
	// Downgrade the victim's files to the legacy encodings.
	storePath := filepath.Join(dir, victim.Store)
	store, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(store), "TASMPQ2\n") {
		t.Fatalf("fresh store is not v2: %q", store[:8])
	}
	v1 := append([]byte("TASMPQ1\n"), store[8:len(store)-4]...)
	if err := os.WriteFile(storePath, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	profPath := filepath.Join(dir, victim.Profile)
	prof, err := os.ReadFile(profPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(prof), profileMagicV2) {
		t.Fatalf("fresh profile is not a v2 container: %q", prof[:8])
	}
	legacy := prof[len(profileMagicV2) : len(prof)-4]
	if err := os.WriteFile(profPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := Open(dir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("opening corpus with legacy files: %v", err)
	}
	if c.Quarantined() != 0 || c.Len() != 3 {
		t.Fatalf("Quarantined = %d, Len = %d; legacy files must pass the scrub", c.Quarantined(), c.Len())
	}
	q, err := c.ParseBracket(crashQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.TopK(context.Background(), q, 4); err != nil {
		t.Fatalf("TopK over legacy files: %v", err)
	}
}

// TestScrubQuarantinesDisorderedProfile: a profile whose grams are not in
// strictly ascending hash order, or whose histogram lists a label twice,
// was not written by this corpus — even under a valid checksum it fails
// to load and quarantines under scrub like any other corrupt profile, and
// with verification off it leaves its document unprofiled.
func TestScrubQuarantinesDisorderedProfile(t *testing.T) {
	base, victim := buildVictimCorpus(t)
	data, err := os.ReadFile(filepath.Join(base, victim.Profile))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := profilePayload(data)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(payload))
	grams, err := pqgram.ReadProfile(br)
	if err != nil {
		t.Fatal(err)
	}
	histogram, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	hashes, counts := grams.Grams()
	if len(hashes) < 2 {
		t.Fatalf("victim has %d distinct grams, the test needs two", len(hashes))
	}
	// seal re-encodes a profile file from its gram entries and histogram
	// under a valid checksum, so only the structural parse can object.
	seal := func(order []int, histogram []byte) []byte {
		var b bytes.Buffer
		b.WriteString(profileMagicV2 + "TASMPF1\n")
		varint.Write(&b, uint64(grams.P()))
		varint.Write(&b, uint64(grams.Q()))
		varint.Write(&b, uint64(len(order)))
		for _, i := range order {
			varint.Write(&b, hashes[i])
			varint.Write(&b, uint64(counts[i]))
		}
		b.Write(histogram)
		return binary.LittleEndian.AppendUint32(b.Bytes(), crc32.Checksum(b.Bytes(), crcTable))
	}
	ascending := make([]int, len(hashes))
	for i := range ascending {
		ascending[i] = i
	}
	var twice bytes.Buffer
	varint.Write(&twice, 2)
	for range 2 {
		varint.Write(&twice, 1)
		twice.WriteString("p")
		varint.Write(&twice, 1)
	}
	cases := map[string][]byte{
		"descending grams": seal(append([]int{1, 0}, ascending[2:]...), histogram),
		"duplicate gram":   seal(append([]int{0, 0}, ascending[2:]...), histogram),
		"duplicate label":  seal(ascending, twice.Bytes()),
	}
	// The control: re-sealed unchanged, the file loads.
	cases["unchanged"] = seal(ascending, histogram)
	for name, file := range cases {
		corrupt := name != "unchanged"
		for _, mode := range []VerifyMode{VerifyScrub, VerifyOff} {
			dir := t.TempDir()
			copyDir(t, base, dir)
			if err := os.WriteFile(filepath.Join(dir, victim.Profile), file, 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := Open(dir, WithVerifyMode(mode), WithLogger(quietLogger()))
			if err != nil {
				t.Fatalf("%s: Open: %v", name, err)
			}
			st := c.snapshot()
			if !corrupt && c.Len() != 3 {
				t.Errorf("%s: Len = %d, want 3", name, c.Len())
			}
			if mode == VerifyScrub && corrupt {
				if c.Quarantined() != 1 || c.Len() != 2 {
					t.Errorf("%s: Quarantined = %d, Len = %d; want 1 and 2", name, c.Quarantined(), c.Len())
				}
				continue
			}
			for slot, d := range st.docs {
				if profiled := st.index().totals[slot] >= 0; profiled == (corrupt && d.ID == victim.ID) {
					t.Errorf("%s, verification off: document %s profiled = %v", name, d.Name, profiled)
				}
			}
		}
	}
}
