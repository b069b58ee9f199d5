// Package corpus manages a directory of persisted documents and answers
// top-k approximate subtree matching queries across all of them — the
// multi-document serving layer above the single-document tasm library.
//
// A corpus directory contains a manifest (manifest.json, documented in
// the docstore package) and, per ingested document, a binary postorder
// store plus a profile file built at ingest:
//
//	docs/<id>.store    – postorder queue + label dictionary (docstore format)
//	docs/<id>.profile  – pq-gram profile, then a label histogram
//
// # Profile file format
//
// Since PR 8 profiles are written inside a checksummed container (v2):
//
//	magic "TASMPR2\n"
//	payload (the legacy v1 profile format below)
//	crc32c — 4-byte little-endian CRC-32C trailer over magic + payload
//
// The payload, and the entire pre-PR-8 profile file format (still
// readable), is, with all integers unsigned LEB128 varints:
//
//	pq-gram profile as written by pqgram.(*Profile).Write:
//	    magic "TASMPF1\n", p, q, gramCount, gramCount × (hash, mult)
//	labelCount, then labelCount × (byteLen, bytes, count)
//
// The label histogram maps each distinct label to its number of
// occurrences in the document. Legacy files are distinguished by their
// leading "TASMPF1\n" pqgram magic.
//
// # Durability and integrity
//
// Every file commit — store, profile, manifest — goes through the
// atomicio protocol (temp file, fsync, rename, parent directory fsync),
// so a crash at any instant leaves each path either at its previous
// content or its new content, never torn. Open sweeps orphaned temp
// files and unreferenced store/profile files left by crashes, then (per
// WithVerifyMode) checksums every referenced file; documents that fail
// verification are quarantined — their files are moved to the corpus's
// quarantine/ directory and the manifest is rewritten without them under
// a bumped generation — so one rotted file costs one document, not the
// corpus. See Verify for the on-demand scrub.
//
// # Dictionary lifecycle
//
// The corpus label dictionary is immutable between ingests. Open loads
// every document's labels into a mutable dictionary and freezes it; an
// ingest clones the frozen dictionary, interns the new document's labels
// into the clone, freezes the clone and publishes it — readers of the old
// dictionary are never disturbed, and every previously assigned
// identifier stays valid.
//
// Queries never touch the shared dictionary at all: each TopK run
// resolves labels through a request-scoped copy-on-write overlay
// (dict.Overlay) that reads through the frozen base and interns labels
// the corpus has never seen with identifiers above the base's watermark.
// Dropping the overlay at the end of the request releases those labels in
// O(1), so a long-running server answering unboundedly many distinct
// query labels holds a dictionary bounded by its documents' labels — and
// concurrent scans share the frozen base lock-free.
//
// # Query answering
//
// TopK(q, k) ranks the subtrees of every corpus document in one shared
// ranking. The profile index built at ingest drives a filter-and-verify
// scan:
//
//   - Ordering (heuristic): documents are scanned in ascending pq-gram
//     distance to the query, so documents likely to contain close matches
//     fill the ranking early and tighten the running k-th distance.
//   - Pruning (sound): for each document the label histogram yields a
//     lower bound on the distance of ANY of its subtrees — every query
//     node whose label occurs in the query more often than in the whole
//     document costs at least 1 in any edit mapping (Definition 4 gives
//     all node costs ≥ 1). A document whose bound strictly exceeds the
//     current k-th distance is skipped without being opened.
//
// The pq-gram distance itself is only a heuristic for ordering — it is
// not a lower bound of the unit-cost tree edit distance — so skipping
// never depends on it; results are exactly those of an exhaustive scan
// of every document, in deterministic (distance, document, position)
// order.
package corpus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"tasm/internal/atomicio"
	"tasm/internal/core"
	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/docstore"
	"tasm/internal/mmapio"
	"tasm/internal/postorder"
	"tasm/internal/pqgram"
	"tasm/internal/tree"
	"tasm/internal/varint"
	"tasm/internal/xmlstream"
)

// manifestFile is the manifest's name inside the corpus directory.
const manifestFile = "manifest.json"

// docsDir is the subdirectory holding store and profile files.
const docsDir = "docs"

// quarantineDir is the subdirectory corrupt documents' files are moved
// to. Nothing in it is ever read or deleted by the corpus: it exists for
// operators to inspect, restore from backup, or discard.
const quarantineDir = "quarantine"

// profileMagicV2 marks the checksummed profile container; legacy profile
// files start directly with the pqgram payload magic "TASMPF1\n".
const profileMagicV2 = "TASMPR2\n"

// crcTable is CRC-32C (Castagnoli), matching the docstore trailer.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DocInfo describes one corpus document (the manifest entry).
type DocInfo = docstore.ManifestDoc

// Option configures a Corpus at Open.
type Option func(*Corpus)

// WithCostModel selects the cost model queries are answered under
// (default: unit costs). The model applies to every query; the corpus
// lower bounds remain valid for any model because Definition 4 requires
// all node costs ≥ 1.
func WithCostModel(m cost.Model) Option {
	return func(c *Corpus) { c.model = m }
}

// WithPQ sets the pq-gram shape used for profile building when creating a
// new corpus (default p=2, q=3). Opening an existing corpus keeps the
// shape recorded in its manifest; profiles of different shapes are not
// comparable.
func WithPQ(p, q int) Option {
	return func(c *Corpus) { c.p, c.q = p, q }
}

// VerifyMode selects what Open does about file integrity.
type VerifyMode int

const (
	// VerifyScrub (the default) checksums every referenced store and
	// profile file at Open and quarantines documents that fail — the
	// corpus opens and serves exact results over the surviving set.
	VerifyScrub VerifyMode = iota
	// VerifyStrict fails Open on the first corrupt document instead of
	// quarantining — for operators who want a damaged corpus to refuse to
	// serve rather than silently shrink.
	VerifyStrict
	// VerifyOff skips content verification at Open (the orphan sweep
	// still runs; it is part of crash recovery, not integrity checking).
	VerifyOff
)

// WithVerifyMode selects the Open-time integrity behaviour (default
// VerifyScrub). The explicit Verify method always scrubs, regardless of
// mode.
func WithVerifyMode(m VerifyMode) Option {
	return func(c *Corpus) { c.mode = m }
}

// WithLogger sets the logger for scrub and quarantine warnings (default
// slog.Default()).
func WithLogger(l *slog.Logger) Option {
	return func(c *Corpus) { c.log = l }
}

// WithFS substitutes the filesystem used for durable commits — the
// crash-injection seam. Production corpora use atomicio.OS; tests wrap
// it in a crashinject.Injector to script a crash at every commit step.
// Reads are not routed through fs: a crashed process's recovery path is
// exercised by reopening with the real filesystem.
func WithFS(fs atomicio.FS) Option {
	return func(c *Corpus) { c.fs = fs }
}

// WithMmap selects how committed store files are loaded for the serving
// set (default true: memory-mapped read-only, so the file's bytes stay in
// the page cache rather than the heap). false reads each store whole into
// the heap instead — the portable fallback, behind the same cached-image
// interface, and the equivalence oracle for the mapped path. Either way
// the items are decoded once, at load, into the columns queries scan, and
// the query path never re-opens or re-parses a store; a store that fails
// to load at all degrades that one document to per-query streaming
// reads.
func WithMmap(on bool) Option {
	return func(c *Corpus) { c.mmap = on }
}

// Corpus is an open corpus directory. It is safe for concurrent use:
// queries may run while documents are ingested, and ingests are
// serialized internally. The read path of a query never locks the label
// dictionary — scans share an immutable frozen base and intern
// request-local labels into disposable overlays.
type Corpus struct {
	dir   string
	model cost.Model
	p, q  int
	fs    atomicio.FS
	log   *slog.Logger
	mode  VerifyMode
	mmap  bool

	mu       sync.RWMutex
	man      *docstore.Manifest
	profiles map[int]*docProfile // by document id
	// stores caches each document's loaded store: the mapped (or, under
	// WithMmap(false), heap-copied) bytes, the header parsed once, the
	// label remap into the base dictionary, and the items decoded once
	// into postorder columns. Entries are created when
	// a document enters the serving set (Open, AddTree) and deleted when
	// it leaves (Remove, quarantine); a document that fails to load has
	// no entry and is served by per-query streaming reads instead. The
	// remap never goes stale: label ids are assigned once and preserved
	// by every dictionary clone, so a remap computed at load time stays
	// valid under every later base and every request overlay.
	stores map[int]*docStore
	// gen mirrors the manifest's persisted generation: bumped (and
	// written) on every ingest and removal, monotone across restarts.
	gen uint64
	// dict is the frozen corpus base dictionary. It is replaced wholesale
	// on every ingest (clone → intern → freeze → publish), never mutated
	// in place, so snapshots taken under mu stay internally consistent
	// with the manifest and profiles captured alongside them.
	dict *dict.Base
	// snap is the prebuilt immutable snapshot queries run against,
	// rebuilt by publishLocked after every mutation (generation bump).
	// Serving a query is one RLock'd pointer read — no copying.
	snap *snapshot

	// Per-corpus pools of query-lifetime scan state: plan slices, image
	// readers, and core scan scratch (distance computer, candidate
	// source, candidate view). Everything a pool hands out is reset before
	// use and returned at end of run, so steady-state queries allocate
	// O(k), not O(corpus).
	planPool    sync.Pool // *queryPlan
	readerPool  sync.Pool // *docstore.ImageReader
	scratchPool sync.Pool // *core.ScanScratch
}

// docProfile is the in-memory profile index entry of one document.
type docProfile struct {
	grams *pqgram.Profile
	// labels maps interned label ids (in the corpus base dictionary) to
	// the label's occurrence count in the document.
	labels map[int]int
}

// docStore is the cached, query-ready form of one document's store file:
// region keeps the bytes alive (and unmaps them via finalizer once no
// snapshot references them), img is the header parsed once, remap
// translates stored label ids to base-dictionary ids. cols is the item
// region decoded and verified once at load — what every query scans, so
// answers never depend on the file's bytes after load; it is nil for a
// store whose items are damaged, which is streamed from img per query and
// reports the damage there. Immutable after construction; shared by every
// snapshot that includes the document.
type docStore struct {
	region *mmapio.Region
	img    *docstore.Image
	remap  []int
	cols   *postorder.Columns
}

// snapshot is one consistent view of the corpus for a single query run:
// the manifest documents, their profiles, their loaded stores, and the
// frozen dictionary they were interned in. All of it is published
// together as one immutable value, so every profile and remap id
// resolves in base and every overlay id above base's watermark is
// guaranteed fresh with respect to the captured documents. Queries that
// captured a snapshot before a Remove or quarantine keep scanning the
// old mapped bytes — a mapping keeps its inode alive past rename and
// unlink — and the region is unmapped by GC once the last such query
// drops it.
type snapshot struct {
	docs        []DocInfo
	profiles    map[int]*docProfile
	stores      map[int]*docStore
	base        *dict.Base
	quarantined int
}

// snapshot returns the prebuilt immutable snapshot for one query run.
func (c *Corpus) snapshot() *snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.snap
}

// publishLocked rebuilds the immutable snapshot from the current
// manifest, profiles, stores, and dictionary. Call with mu held after
// every mutation; during Open (c.dict still nil) it is a no-op — Open
// publishes once at the end.
func (c *Corpus) publishLocked() {
	if c.dict == nil {
		return
	}
	st := &snapshot{
		docs:        c.man.Docs,
		profiles:    make(map[int]*docProfile, len(c.profiles)),
		stores:      make(map[int]*docStore, len(c.stores)),
		base:        c.dict,
		quarantined: c.man.Quarantined,
	}
	for id, p := range c.profiles {
		st.profiles[id] = p
	}
	for id, s := range c.stores {
		st.stores[id] = s
	}
	c.snap = st
}

// loadStore maps (or, under WithMmap(false), reads) a committed store
// file, parses its header, interns its label table into base — which
// must still be mutable (Open) or be a private pre-freeze clone
// (AddTree) — and decodes its items into columns. Failures are not
// fatal: the document falls back to per-query streaming reads (of the
// image if only the items are damaged, of the file otherwise), and the
// degradation is logged.
func (c *Corpus) loadStore(base *dict.Base, d DocInfo) *docStore {
	open := mmapio.Map
	if !c.mmap {
		open = mmapio.ReadFile
	}
	region, err := open(filepath.Join(c.dir, d.Store))
	if err == nil {
		var img *docstore.Image
		if img, err = docstore.ParseImage(region.Bytes()); err == nil {
			s := &docStore{region: region, img: img, remap: img.Remap(base)}
			if s.cols, err = img.Columns(s.remap); err != nil {
				c.log.Warn("corpus: store items not decodable, document degrades to streaming reads",
					"dir", c.dir, "doc", d.Name, "id", d.ID, "err", err)
			}
			return s
		}
		region.Close()
	}
	c.log.Warn("corpus: store not cacheable, document degrades to streaming reads",
		"dir", c.dir, "doc", d.Name, "id", d.ID, "err", err)
	return nil
}

// ColumnBytes returns the heap bytes held by the decoded postorder
// columns and their label postings (postorder.Columns.Bytes) of the
// serving set: 12 per node and 8 per distinct label of every document
// whose store decoded cleanly at load.
func (c *Corpus) ColumnBytes() int64 {
	st := c.snapshot()
	var n int64
	for _, s := range st.stores {
		if s.cols != nil {
			n += s.cols.Bytes()
		}
	}
	return n
}

// MappedBytes returns the total size of store bytes the corpus currently
// serves from read-only file mappings — memory visible to the process
// but owned by the page cache, not the heap. Heap-loaded stores (the
// WithMmap(false) fallback and non-unix platforms) do not count.
func (c *Corpus) MappedBytes() int64 {
	st := c.snapshot()
	var n int64
	for _, s := range st.stores {
		if s.region.Mapped() {
			n += int64(s.region.Len())
		}
	}
	return n
}

// Open opens the corpus directory dir, creating it (and an empty
// manifest) if it does not exist, sweeps crash debris, verifies file
// integrity (per WithVerifyMode), and loads the profile index.
func Open(dir string, opts ...Option) (*Corpus, error) {
	c := &Corpus{
		dir:      dir,
		model:    cost.Unit{},
		p:        2,
		q:        3,
		fs:       atomicio.OS,
		log:      slog.Default(),
		mmap:     true,
		profiles: map[int]*docProfile{},
		stores:   map[int]*docStore{},
	}
	c.planPool.New = func() any { return new(queryPlan) }
	c.readerPool.New = func() any { return new(docstore.ImageReader) }
	c.scratchPool.New = func() any { return new(core.ScanScratch) }
	for _, o := range opts {
		o(c)
	}
	if c.p < 1 || c.q < 1 {
		return nil, fmt.Errorf("corpus: pq-gram shape must be ≥ 1, got (%d,%d)", c.p, c.q)
	}
	if err := os.MkdirAll(filepath.Join(dir, docsDir), 0o755); err != nil {
		return nil, err
	}
	manPath := filepath.Join(dir, manifestFile)
	man, err := docstore.ReadManifest(manPath)
	switch {
	case os.IsNotExist(err):
		man = docstore.NewManifest(c.p, c.q)
		if err := docstore.WriteManifestFS(c.fs, manPath, man); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	default:
		c.p, c.q = man.P, man.Q
	}
	c.man = man
	c.gen = man.Generation
	// Crash recovery: a crash can strand temp files and committed store or
	// profile files whose manifest commit never happened. The manifest is
	// the source of truth, so anything it does not reference is debris.
	c.sweepOrphans()
	if c.mode != VerifyOff {
		if _, err := c.verifyLocked(c.mode == VerifyStrict); err != nil {
			return nil, err
		}
	}
	base := dict.New()
	for _, d := range c.man.Docs {
		p, err := c.loadProfile(base, d)
		if err != nil {
			// A missing or (under VerifyOff) unreadable profile degrades
			// that one document to unfiltered scanning (query.go records it
			// in Stats.Unprofiled) rather than making the whole corpus
			// unopenable: profiles are a derived index, not source data.
			// Corrupt profiles never reach this point under VerifyScrub —
			// the scrub above has already quarantined those documents.
			continue
		}
		c.profiles[d.ID] = p
	}
	// Load every surviving store into the cache: map the file, parse the
	// header once, intern the label table into the still-mutable base,
	// decode the items into columns. For a profiled document the store's
	// labels are a subset of the profile's, so the dictionary does not
	// grow here; an unprofiled document contributes its labels now
	// instead of per query.
	for _, d := range c.man.Docs {
		if s := c.loadStore(base, d); s != nil {
			c.stores[d.ID] = s
		}
	}
	c.dict = base.Freeze()
	c.publishLocked()
	return c, nil
}

// sweepOrphans removes crash debris: atomicio temp files anywhere in the
// corpus, legacy manifest temp files, and files in docs/ the manifest
// does not reference (a crash between a file commit and its manifest
// commit, or a failed unlink after a removal). Only called while the
// corpus is unpublished (Open) or under mu.
func (c *Corpus) sweepOrphans() {
	removed := 0
	if ents, err := os.ReadDir(c.dir); err == nil {
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), atomicio.TempPrefix) || strings.HasPrefix(e.Name(), ".manifest-") {
				if os.Remove(filepath.Join(c.dir, e.Name())) == nil {
					removed++
				}
			}
		}
	}
	ref := make(map[string]bool, 2*len(c.man.Docs))
	for _, d := range c.man.Docs {
		ref[filepath.Base(d.Store)] = true
		ref[filepath.Base(d.Profile)] = true
	}
	if ents, err := os.ReadDir(filepath.Join(c.dir, docsDir)); err == nil {
		for _, e := range ents {
			if e.IsDir() || ref[e.Name()] {
				continue
			}
			if os.Remove(filepath.Join(c.dir, docsDir, e.Name())) == nil {
				removed++
			}
		}
	}
	if removed > 0 {
		c.log.Warn("corpus: swept orphaned files left by an interrupted operation",
			"dir", c.dir, "removed", removed)
	}
}

// VerifyReport summarizes one integrity scrub.
type VerifyReport struct {
	// Checked is the number of documents whose files were verified.
	Checked int
	// Quarantined lists the names of documents this pass quarantined.
	Quarantined []string
}

// errProfileMissing marks a document whose profile file does not exist —
// a degradation (unfiltered scan), not corruption, so it never
// quarantines; see the dictionary-lifecycle notes on Open.
var errProfileMissing = errors.New("profile file missing")

// Verify scrubs every document in the corpus: each store and profile
// file is read whole, its CRC-32C trailer verified, and its payload
// structurally parsed. Documents that fail are quarantined — files moved
// to quarantine/, manifest rewritten without them under a bumped
// generation — and reported. In-flight queries that snapshotted the
// corpus earlier are undisturbed; the shared dictionary is not shrunk
// (as with Remove).
func (c *Corpus) Verify() (VerifyReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verifyLocked(false)
}

// verifyLocked runs the scrub with mu held (or the corpus unpublished,
// during Open). In strict mode the first corrupt document is an error
// and nothing is quarantined.
func (c *Corpus) verifyLocked(strict bool) (VerifyReport, error) {
	var rep VerifyReport
	var doomed []DocInfo
	for _, d := range c.man.Docs {
		rep.Checked++
		err := c.checkDoc(d)
		if err == nil || errors.Is(err, errProfileMissing) {
			continue
		}
		if strict {
			return rep, fmt.Errorf("corpus: document %q failed verification: %w", d.Name, err)
		}
		c.log.Warn("corpus: quarantining corrupt document",
			"dir", c.dir, "doc", d.Name, "id", d.ID, "err", err)
		doomed = append(doomed, d)
		rep.Quarantined = append(rep.Quarantined, d.Name)
	}
	if len(doomed) > 0 {
		if err := c.quarantineLocked(doomed); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// checkDoc verifies one document's files. A nil return means both files
// are intact; errProfileMissing means the store is intact and the
// profile file is absent; anything else is corruption.
func (c *Corpus) checkDoc(d DocInfo) error {
	data, err := os.ReadFile(filepath.Join(c.dir, d.Store))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := docstore.Verify(data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	pdata, err := os.ReadFile(filepath.Join(c.dir, d.Profile))
	if os.IsNotExist(err) {
		return errProfileMissing
	}
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	payload, err := profilePayload(pdata)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	// Structural parse into a throwaway dictionary: checksum-valid (or
	// legacy, checksum-less) bytes must also decode, or the document
	// cannot serve.
	if _, err := c.parseProfile(dict.New(), d, payload); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	return nil
}

// quarantineLocked moves the doomed documents' files into quarantine/
// and commits a manifest without them. File moves happen first: if the
// process dies between move and manifest commit, the next Open finds
// the stores missing and re-quarantines the same documents — the two
// orders converge, one of them needs no special casing.
func (c *Corpus) quarantineLocked(doomed []DocInfo) error {
	qdir := filepath.Join(c.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	dead := make(map[int]bool, len(doomed))
	for _, d := range doomed {
		dead[d.ID] = true
		// Best-effort: a file may already be missing (that can be why the
		// document is being quarantined).
		os.Rename(filepath.Join(c.dir, d.Store), filepath.Join(qdir, filepath.Base(d.Store)))
		os.Rename(filepath.Join(c.dir, d.Profile), filepath.Join(qdir, filepath.Base(d.Profile)))
	}
	man := *c.man
	man.Docs = make([]DocInfo, 0, len(c.man.Docs)-len(doomed))
	for _, d := range c.man.Docs {
		if !dead[d.ID] {
			man.Docs = append(man.Docs, d)
		}
	}
	man.Generation = c.gen + 1
	man.Quarantined = c.man.Quarantined + len(doomed)
	if err := docstore.WriteManifestFS(c.fs, filepath.Join(c.dir, manifestFile), &man); err != nil {
		return err
	}
	c.man = &man
	c.gen = man.Generation
	for id := range dead {
		delete(c.profiles, id)
		// Drop the cached store; queries that snapshotted before the
		// quarantine keep their reference and the mapping keeps the
		// (renamed) inode readable until they finish.
		delete(c.stores, id)
	}
	c.publishLocked()
	return nil
}

// Quarantined returns the number of documents quarantined over the
// corpus's lifetime, as recorded in the manifest.
func (c *Corpus) Quarantined() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.man.Quarantined
}

// profilePayload validates a profile file image's container and returns
// the inner payload. v2 containers have their CRC-32C trailer verified
// (any single flipped byte is detected) and stripped; legacy files —
// recognized by their leading pqgram payload magic — pass through, their
// only check being the structural parse the caller performs.
func profilePayload(data []byte) ([]byte, error) {
	if len(data) >= len(profileMagicV2) && string(data[:len(profileMagicV2)]) == profileMagicV2 {
		if len(data) < len(profileMagicV2)+4 {
			return nil, fmt.Errorf("v2 profile of %d bytes is too short for a checksum trailer", len(data))
		}
		body := data[:len(data)-4]
		want := binary.LittleEndian.Uint32(data[len(data)-4:])
		if got := crc32.Checksum(body, crcTable); got != want {
			return nil, fmt.Errorf("%w: crc32c %08x, trailer says %08x", docstore.ErrChecksum, got, want)
		}
		return data[len(profileMagicV2) : len(data)-4], nil
	}
	return data, nil
}

// Dir returns the corpus directory.
func (c *Corpus) Dir() string { return c.dir }

// Generation returns a counter that increases with every successful
// ingest or removal. It is persisted in the manifest, so it stays
// monotone across restarts and result caches keyed on it (even ones that
// outlive this process) never see a value repeat for a different
// document set.
func (c *Corpus) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}

// Len returns the number of documents in the corpus.
func (c *Corpus) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.man.Docs)
}

// NumDocs returns the document count without cost or staleness — the
// non-blocking count interface shared with remote backends (see
// shard.Client.NumDocs), used by serving-layer liveness probes.
func (c *Corpus) NumDocs() (int, bool) { return c.Len(), true }

// DictLen returns the number of labels in the corpus base dictionary —
// the ingested documents' distinct labels. It is bounded by the corpus
// contents and unaffected by queries: query-only labels live in
// per-request overlays that are dropped when the request completes.
func (c *Corpus) DictLen() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dict.Len()
}

// Docs returns the manifest entries of all documents in ascending id
// order.
func (c *Corpus) Docs() []DocInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]DocInfo, len(c.man.Docs))
	copy(out, c.man.Docs)
	return out
}

// ParseBracket parses a query in bracket notation.
//
// The query is interned in a fresh copy-on-write overlay over the corpus
// dictionary: labels the corpus knows resolve to their shared ids, labels
// it does not stay local to the returned tree. The shared dictionary
// never grows, no matter how many distinct labels queries carry, and the
// overlay (with every request-local label) is released with the tree.
func (c *Corpus) ParseBracket(s string) (*tree.Tree, error) {
	return tree.Parse(c.queryOverlay(), s)
}

// ParseXML parses an XML query against a fresh overlay of the corpus
// dictionary. See ParseBracket for the overlay lifecycle.
func (c *Corpus) ParseXML(r io.Reader) (*tree.Tree, error) {
	return xmlstream.ParseTree(c.queryOverlay(), r)
}

// queryOverlay returns a fresh request overlay over the current base.
func (c *Corpus) queryOverlay() *dict.Overlay {
	c.mu.RLock()
	base := c.dict
	c.mu.RUnlock()
	return dict.NewOverlay(base)
}

// AddXML ingests an XML document under the given name: the document is
// parsed, persisted as a postorder store, profiled, and added to the
// manifest. Names must be unique within the corpus.
func (c *Corpus) AddXML(name string, r io.Reader) (DocInfo, error) {
	t, err := xmlstream.ParseTree(c.queryOverlay(), r)
	if err != nil {
		return DocInfo{}, fmt.Errorf("corpus: parsing %q: %w", name, err)
	}
	return c.AddTree(name, t)
}

// ImportTree re-interns a tree parsed under any dictionary into an
// overlay of the corpus dictionary, aligning its shared labels with the
// corpus ids. Calling it is never required — TopK and AddTree accept
// trees from any dictionary and re-intern internally — but it remains a
// cheap way to pre-resolve a tree reused across several queries.
func (c *Corpus) ImportTree(t *tree.Tree) (*tree.Tree, error) {
	if t == nil || t.Size() == 0 {
		return nil, fmt.Errorf("corpus: tree must be non-empty")
	}
	return t.Reintern(c.queryOverlay()), nil
}

// AddTree ingests an already-materialized document tree, parsed under any
// dictionary. The document's labels are interned into a private clone of
// the corpus dictionary, which is frozen and published with the updated
// manifest — in-flight queries keep reading the previous frozen
// dictionary undisturbed.
func (c *Corpus) AddTree(name string, t *tree.Tree) (DocInfo, error) {
	if name == "" {
		return DocInfo{}, fmt.Errorf("corpus: document name must not be empty")
	}
	if t == nil || t.Size() == 0 {
		return DocInfo{}, fmt.Errorf("corpus: document must be a non-empty tree")
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.man.Docs {
		if d.Name == name {
			return DocInfo{}, fmt.Errorf("corpus: document %q already exists", name)
		}
	}
	id := c.man.NextID

	// Extend the dictionary copy-on-write: readers of the current frozen
	// base never observe the ingest in progress.
	nd := c.dict.Clone()
	t = t.Reintern(nd)

	grams, err := pqgram.New(t, c.p, c.q)
	if err != nil {
		return DocInfo{}, err
	}
	labels := make(map[int]int)
	for i := 0; i < t.Size(); i++ {
		labels[t.LabelID(i)]++
	}

	info := DocInfo{
		ID:        id,
		Name:      name,
		Nodes:     t.Size(),
		RootLabel: t.Label(t.Root()),
		Store:     filepath.Join(docsDir, fmt.Sprintf("%d.store", id)),
		Profile:   filepath.Join(docsDir, fmt.Sprintf("%d.profile", id)),
	}
	// Until the manifest commits below, the store and profile files are
	// unreferenced — so every error path unlinks whatever this ingest has
	// committed so far, rather than leaving debris for the next Open's
	// sweep. (A crash still leaves debris; the sweep remains the backstop.)
	if err := c.writeFile(info.Store, func(w io.Writer) error {
		return docstore.WriteItems(w, nd, postorder.Items(t))
	}); err != nil {
		return DocInfo{}, err
	}
	if err := c.writeFile(info.Profile, func(w io.Writer) error {
		return writeProfile(w, nd, grams, labels)
	}); err != nil {
		c.removeFiles(info.Store)
		return DocInfo{}, err
	}

	man := *c.man
	man.Docs = append(append([]DocInfo{}, c.man.Docs...), info)
	man.NextID = id + 1
	man.Generation = c.gen + 1
	if err := docstore.WriteManifestFS(c.fs, filepath.Join(c.dir, manifestFile), &man); err != nil {
		c.removeFiles(info.Store, info.Profile)
		return DocInfo{}, err
	}
	c.man = &man
	c.profiles[id] = &docProfile{grams: grams, labels: labels}
	// Cache the just-committed store before freezing the clone, so its
	// label table interns into nd (a no-op: the document's labels are
	// already there). The file is read back rather than re-encoded from t
	// — the cache must serve exactly the committed bytes.
	if s := c.loadStore(nd, info); s != nil {
		c.stores[id] = s
	}
	c.dict = nd.Freeze()
	c.gen = man.Generation
	c.publishLocked()
	return info, nil
}

// ErrNotFound reports that a named document does not exist in the corpus;
// test with errors.Is.
var ErrNotFound = errors.New("document not found")

// Remove deletes the named document from the corpus: the manifest entry
// is tombstoned (rewritten without the document — NextID is untouched, so
// ids are never reused and generation-keyed caches stay valid), the
// profile index entry is dropped, and the store and profile files are
// garbage-collected best-effort after the manifest commit.
//
// The shared dictionary is not shrunk: it stays bounded by every label
// the corpus has ever ingested, which keeps in-flight scans (that still
// resolve through it) valid. A query that snapshotted the corpus before
// the Remove still answers over the old document set: its snapshot holds
// the document's mapped store, which outlives the unlink.
func (c *Corpus) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := -1
	for i, d := range c.man.Docs {
		if d.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("corpus: %w: %q", ErrNotFound, name)
	}
	doomed := c.man.Docs[idx]

	man := *c.man
	man.Docs = append(append([]DocInfo{}, c.man.Docs[:idx]...), c.man.Docs[idx+1:]...)
	man.Generation = c.gen + 1
	if err := docstore.WriteManifestFS(c.fs, filepath.Join(c.dir, manifestFile), &man); err != nil {
		return err
	}
	c.man = &man
	delete(c.profiles, doomed.ID)
	delete(c.stores, doomed.ID)
	c.gen = man.Generation
	c.publishLocked()

	// Best-effort file GC: the manifest no longer references the files, so
	// a failed unlink merely leaks disk until the next Open's orphan sweep
	// collects it; the manifest is the source of truth. A query that
	// snapshotted the corpus before this Remove is undisturbed: its
	// snapshot still references the cached store, whose mapping keeps the
	// unlinked inode readable until the last such query drops it (only a
	// document that had degraded to streaming reads can race the GC and
	// fail with a ScanError).
	c.removeFiles(doomed.Store, doomed.Profile)
	return nil
}

// writeFile durably commits a corpus-relative file through the atomicio
// protocol against the corpus's (possibly crash-injected) filesystem.
func (c *Corpus) writeFile(rel string, fill func(io.Writer) error) error {
	return atomicio.WriteFile(c.fs, filepath.Join(c.dir, rel), fill)
}

// removeFiles best-effort unlinks corpus-relative files — the cleanup of
// AddTree's error paths. Failures are ignored: the manifest does not
// reference these files, so anything left behind is debris the next
// Open's orphan sweep collects.
func (c *Corpus) removeFiles(rels ...string) {
	for _, rel := range rels {
		c.fs.Remove(filepath.Join(c.dir, rel))
	}
}

// writeProfile serializes a document's profile file: the v2 container
// magic, the pq-gram profile, the label histogram, and the CRC-32C
// trailer, with labels resolved in d.
func writeProfile(w io.Writer, d dict.Dict, grams *pqgram.Profile, labels map[int]int) error {
	h := crc32.New(crcTable)
	mw := io.MultiWriter(w, h)
	if _, err := io.WriteString(mw, profileMagicV2); err != nil {
		return err
	}
	if err := grams.Write(mw); err != nil {
		return err
	}
	var buf bytes.Buffer
	// Histogram entries in ascending label id order: ids are assigned in
	// first-intern order, so files stay deterministic per ingest history.
	ids := make([]int, 0, len(labels))
	for id := range labels {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort: histograms are small
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	varint.Write(&buf, uint64(len(ids)))
	for _, id := range ids {
		label := d.Label(id)
		varint.Write(&buf, uint64(len(label)))
		buf.WriteString(label)
		varint.Write(&buf, uint64(labels[id]))
	}
	if _, err := mw.Write(buf.Bytes()); err != nil {
		return err
	}
	// The trailer covers everything hashed so far and goes straight to w:
	// it must not feed back into the hash.
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], h.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

// loadProfile reads a document's profile file into the in-memory index,
// interning its labels into base (the corpus dictionary under
// construction at Open).
func (c *Corpus) loadProfile(base *dict.Base, d DocInfo) (*docProfile, error) {
	data, err := os.ReadFile(filepath.Join(c.dir, d.Profile))
	if err != nil {
		return nil, err
	}
	payload, err := profilePayload(data)
	if err != nil {
		return nil, err
	}
	return c.parseProfile(base, d, payload)
}

// parseProfile decodes a profile payload (container already stripped),
// interning its labels into base.
func (c *Corpus) parseProfile(base *dict.Base, d DocInfo, payload []byte) (*docProfile, error) {
	br := bufio.NewReader(bytes.NewReader(payload))
	grams, err := pqgram.ReadProfile(br)
	if err != nil {
		return nil, err
	}
	if grams.P() != c.p || grams.Q() != c.q {
		return nil, fmt.Errorf("profile shape (%d,%d) does not match corpus (%d,%d)",
			grams.P(), grams.Q(), c.p, c.q)
	}
	n, err := varint.Read(br)
	if err != nil {
		return nil, fmt.Errorf("reading label histogram size: %w", err)
	}
	labels := make(map[int]int, min(n, 4096))
	for i := uint64(0); i < n; i++ {
		ln, err := varint.Read(br)
		if err != nil {
			return nil, fmt.Errorf("reading histogram label %d: %w", i, err)
		}
		if ln > uint64(d.Nodes)*64+1024 {
			// A label longer than the document could plausibly hold is
			// corruption; refuse before allocating.
			return nil, fmt.Errorf("histogram label %d claims %d bytes", i, ln)
		}
		buf := make([]byte, ln)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("reading histogram label %d: %w", i, err)
		}
		count, err := varint.Read(br)
		if err != nil {
			return nil, fmt.Errorf("reading histogram count %d: %w", i, err)
		}
		if count < 1 || count > uint64(d.Nodes) {
			return nil, fmt.Errorf("histogram label %q has count %d of %d nodes", buf, count, d.Nodes)
		}
		labels[base.Intern(string(buf))] = int(count)
	}
	return &docProfile{grams: grams, labels: labels}, nil
}
