// Package corpus manages a directory of persisted documents and answers
// top-k approximate subtree matching queries across all of them — the
// multi-document serving layer above the single-document tasm library.
//
// A corpus directory contains a manifest (manifest.json, documented in
// the docstore package) and, per ingested document, one file: a binary
// postorder store (docstore format, checksummed), written at ingest and
// never rewritten.
//
//	docs/<id>.store    – postorder queue + the document's labels
//
// # Profile index
//
// The pq-gram profile and the label histogram that order and skip
// documents are functions of a document's postorder, so they are not
// stored: they are derived from the columns its store is decoded into, in
// the label ids of the snapshot that reads them, into one in-memory index
// per serving snapshot, and never per query. The index is the profiles
// inverted: postings sorted by (gram hash, document) and by (label id,
// document), each with the document's count, plus every document's gram
// total. A query plan binary-searches the query's own distinct grams and
// labels and adds their postings into per-document counters, so its cost
// grows with the postings of the query's keys, not with a probe per
// document. A snapshot's index is derived from the last one a query
// built, on the first query that needs it: one pass drops the removed or
// quarantined documents and shifts later ones down, and the postings of
// the documents added since — every document, for the first query after
// Open — are derived from their columns and merged in. Commits thus never
// wait for the index, and a bulk ingest builds it once.
//
// # Durability and integrity
//
// Every file commit — store, manifest — goes through the atomicio
// protocol (temp file, fsync, rename, parent directory fsync), so a crash
// at any instant leaves each path either at its previous content or its
// new content, never torn. Open sweeps orphaned temp files and files in
// docs/ the manifest does not reference, left by crashes (and the profile
// files earlier versions wrote beside each store), then loads every
// referenced document in one pass: its store is read once, checksummed
// (per WithVerifyMode) and decoded into the postorder columns queries
// scan. A document that does not load is quarantined — its store is moved
// to the corpus's quarantine/ directory and the manifest is rewritten
// without it under a bumped generation — so one rotted file costs one
// document, not the corpus, and no document is ever served in a degraded
// form. See Verify for the on-demand scrub.
//
// A directory an earlier version wrote opens as it is: its manifest's
// "profile" keys are ignored, its profile files are swept by Open, and the
// next commit rewrites the manifest without the keys. Earlier versions
// cannot read a manifest so rewritten, since they require the keys.
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
// ranking. The profile index drives a filter-and-verify scan:
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
	"errors"
	"fmt"
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
	"tasm/internal/tree"
	"tasm/internal/xmlstream"
)

// manifestFile is the manifest's name inside the corpus directory.
const manifestFile = "manifest.json"

// docsDir is the subdirectory holding the store files.
const docsDir = "docs"

// quarantineDir is the subdirectory corrupt documents' files are moved
// to. Nothing in it is ever read or deleted by the corpus: it exists for
// operators to inspect, restore from backup, or discard.
const quarantineDir = "quarantine"

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

// WithPQ sets the pq-gram shape documents and queries are profiled with
// when creating a new corpus (default p=2, q=3). Opening an existing corpus keeps the
// shape recorded in its manifest; profiles of different shapes are not
// comparable.
func WithPQ(p, q int) Option {
	return func(c *Corpus) { c.p, c.q = p, q }
}

// VerifyMode selects what Open does about file integrity.
type VerifyMode int

const (
	// VerifyScrub (the default) checksums and decodes every referenced
	// store as Open loads it and quarantines documents that fail — the
	// corpus opens and serves exact results over the surviving set.
	VerifyScrub VerifyMode = iota
	// VerifyStrict fails Open on the first corrupt document instead of
	// quarantining — for operators who want a damaged corpus to refuse to
	// serve rather than silently shrink.
	VerifyStrict
	// VerifyOff skips the checksums at Open (the orphan sweep still runs;
	// it is part of crash recovery, not integrity checking). A store that
	// does not decode is quarantined even so, since a corpus has no other
	// form to serve it in.
	VerifyOff
)

// WithVerifyMode selects the Open-time integrity behaviour (default
// VerifyScrub): whether Open checks each store's checksum, and whether a
// store that does not load quarantines its document or fails Open. A
// store is the only file of a document Open reads. The explicit Verify
// method always scrubs, regardless of mode.
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
// the heap instead — the portable fallback, and the equivalence oracle
// for the mapped path. Either way a store is read once, at load,
// checksummed and decoded into the columns queries scan, and the query
// path never re-opens or re-parses it.
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

	mu  sync.RWMutex
	man *docstore.Manifest
	// stores holds the loaded store of every document in the manifest:
	// the mapped (or, under WithMmap(false), heap-copied) bytes and the
	// items decoded once into postorder columns. An entry is created
	// before its document enters the serving set — a store that does not
	// load keeps its document out (AddTree) or quarantines it (Open) — and
	// deleted when the document leaves (Remove, quarantine). The columns'
	// label ids never go stale: ids are assigned once and preserved by
	// every dictionary clone, so ids resolved at load time stay valid
	// under every later base and every request overlay.
	stores map[int]*docStore
	// gen mirrors the manifest's persisted generation: bumped (and
	// written) on every ingest and removal, monotone across restarts.
	gen uint64
	// dict is the frozen corpus base dictionary. It is replaced wholesale
	// on every ingest (clone → intern → freeze → publish), never mutated
	// in place, so snapshots taken under mu stay internally consistent
	// with the manifest and stores captured alongside them.
	dict *dict.Base
	// snap is the prebuilt immutable snapshot queries run against,
	// rebuilt by publishLocked after every mutation (generation bump).
	// Serving a query is one RLock'd pointer read — no copying.
	snap *snapshot

	// Per-corpus pools of query-lifetime scan state: plan slices and core
	// scan scratch (distance computer, candidate source, candidate view).
	// Everything a pool hands out is reset before use and returned at end
	// of run, so steady-state queries allocate O(k), not O(corpus).
	planPool    sync.Pool // *queryPlan
	scratchPool sync.Pool // *core.ScanScratch
}

// docStore is the one form a document is served in: region keeps the
// store file's bytes (and unmaps them via finalizer once no snapshot
// references them), cols is its items, checksummed and decoded once at
// load with labels resolved in the base dictionary — what every query
// scans, so answers never depend on the file's bytes after load.
// Immutable after construction; shared by every snapshot that includes
// the document.
type docStore struct {
	region *mmapio.Region
	cols   *postorder.Columns
}

// snapshot is one consistent view of the corpus for a single query run:
// the manifest documents, the profile index over them, their loaded
// stores, and the frozen dictionary they were interned in. All of it is
// published together as one immutable value, so every index and column
// label id resolves in base and every overlay id above base's watermark
// is guaranteed fresh with respect to the captured documents. Queries that
// captured a snapshot before a Remove or quarantine keep scanning the
// departed document's columns, and its region is unmapped by GC once the
// last such query drops it.
type snapshot struct {
	docs        []DocInfo
	profiles    *lazyIndex // slot i of its index is docs[i]
	stores      map[int]*docStore
	base        *dict.Base
	quarantined int
}

// index returns the snapshot's profile index for the pq-gram shape (p, q),
// building it on first use.
func (st *snapshot) index(p, q int) (*profileIndex, error) { return st.profiles.get(st, p, q) }

// snapshot returns the prebuilt immutable snapshot for one query run.
func (c *Corpus) snapshot() *snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.snap
}

// publishLocked rebuilds the immutable snapshot from the current
// manifest, stores, and dictionary. Its profile index is the previous
// snapshot's, carried over to the current manifest when a query first
// needs it: removed and quarantined documents drop out, and the documents
// new to the manifest enter with profiles derived from their columns.
// Call with mu held after every mutation; during Open (c.dict still nil)
// it is a no-op — Open publishes once at the end.
func (c *Corpus) publishLocked() {
	if c.dict == nil {
		return
	}
	profiles := &lazyIndex{from: &profileIndex{}}
	if c.snap != nil {
		profiles = c.snap.profiles.then(c.snap.docs)
	}
	st := &snapshot{
		docs:        c.man.Docs,
		profiles:    profiles,
		stores:      make(map[int]*docStore, len(c.stores)),
		base:        c.dict,
		quarantined: c.man.Quarantined,
	}
	for id, s := range c.stores {
		st.stores[id] = s
	}
	c.snap = st
}

// loadStore maps (or, under WithMmap(false), reads) a committed store
// file and decodes it (docstore.Decode): checks its CRC-32C trailer
// (except under VerifyOff), parses its header, interns its label table
// into base — which must still be mutable (Open) or be a private
// pre-freeze clone (AddTree) — and decodes its items into columns: the
// steps docstore.Verify takes, on the bytes the document is then served
// from. A store that fails any of them cannot be served, and the error
// says why.
func (c *Corpus) loadStore(base *dict.Base, d DocInfo) (*docStore, error) {
	open := mmapio.Map
	if !c.mmap {
		open = mmapio.ReadFile
	}
	region, err := open(filepath.Join(c.dir, d.Store))
	if err != nil {
		return nil, err
	}
	cols, err := docstore.Decode(base, region.Bytes(), c.mode != VerifyOff)
	if err != nil {
		region.Close()
		return nil, err
	}
	return &docStore{region: region, cols: cols}, nil
}

// ColumnBytes returns the heap bytes held by the decoded postorder
// columns and their label postings (postorder.Columns.Bytes) of the
// serving set: 12 per node and 8 per distinct label of every document.
func (c *Corpus) ColumnBytes() int64 {
	st := c.snapshot()
	var n int64
	for _, s := range st.stores {
		n += s.cols.Bytes()
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
// manifest) if it does not exist, sweeps crash debris, and loads every
// document — quarantining, or under VerifyStrict refusing to open over,
// any that does not load (see WithVerifyMode).
func Open(dir string, opts ...Option) (*Corpus, error) {
	c := &Corpus{
		dir:    dir,
		model:  cost.Unit{},
		p:      2,
		q:      3,
		fs:     atomicio.OS,
		log:    slog.Default(),
		mmap:   true,
		stores: map[int]*docStore{},
	}
	c.planPool.New = func() any { return new(queryPlan) }
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
	// Crash recovery: a crash can strand temp files and committed stores
	// whose manifest commit never happened. The manifest is the source of
	// truth, so anything it does not reference is debris.
	c.sweepOrphans()
	base := dict.New()
	var doomed []DocInfo
	for _, d := range c.man.Docs {
		s, err := c.loadStore(base, d)
		if err == nil {
			c.stores[d.ID] = s
			continue
		}
		if c.mode == VerifyStrict {
			return nil, fmt.Errorf("corpus: document %q failed verification: %w", d.Name, err)
		}
		c.log.Warn("corpus: quarantining corrupt document",
			"dir", c.dir, "doc", d.Name, "id", d.ID, "err", err)
		doomed = append(doomed, d)
	}
	if len(doomed) > 0 {
		if err := c.quarantineLocked(doomed); err != nil {
			return nil, err
		}
	}
	c.dict = base.Freeze()
	c.publishLocked()
	return c, nil
}

// sweepOrphans removes crash debris: atomicio temp files anywhere in the
// corpus, and files in docs/ the manifest does not reference (a crash
// between a store commit and its manifest commit, a failed unlink after a
// removal, or a profile file an earlier version wrote). Only called while
// the corpus is unpublished (Open) or under mu.
func (c *Corpus) sweepOrphans() {
	removed := 0
	if ents, err := os.ReadDir(c.dir); err == nil {
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), atomicio.TempPrefix) {
				if os.Remove(filepath.Join(c.dir, e.Name())) == nil {
					removed++
				}
			}
		}
	}
	ref := make(map[string]bool, len(c.man.Docs))
	for _, d := range c.man.Docs {
		ref[filepath.Base(d.Store)] = true
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
		c.log.Warn("corpus: swept files the manifest does not reference (crash debris, or profile files of an earlier version)",
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

// Verify scrubs every document in the corpus: each store is read whole,
// its CRC-32C trailer verified, and its payload decoded as a load would
// (docstore.Verify). Documents that fail are quarantined — files moved to quarantine/, manifest rewritten
// without them under a bumped generation — and reported. In-flight
// queries that snapshotted the corpus earlier are undisturbed; the shared
// dictionary is not shrunk (as with Remove).
func (c *Corpus) Verify() (VerifyReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep VerifyReport
	var doomed []DocInfo
	for _, d := range c.man.Docs {
		rep.Checked++
		data, err := os.ReadFile(filepath.Join(c.dir, d.Store))
		if err == nil {
			err = docstore.Verify(data)
		}
		if err == nil {
			continue
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

// quarantineLocked moves the doomed documents' stores into quarantine/
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
		// Best-effort: the store may already be missing (that can be why
		// the document is being quarantined).
		os.Rename(filepath.Join(c.dir, d.Store), filepath.Join(qdir, filepath.Base(d.Store)))
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
		// Drop the loaded store; queries that snapshotted before the
		// quarantine keep their reference until they finish.
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
// parsed, persisted as a postorder store, and added to the manifest. Names must be unique within the corpus.
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

	info := DocInfo{
		ID:        id,
		Name:      name,
		Nodes:     t.Size(),
		RootLabel: t.Label(t.Root()),
		Store:     filepath.Join(docsDir, fmt.Sprintf("%d.store", id)),
	}
	// Until the manifest commits below, the store is unreferenced — so
	// every error path after its commit unlinks it, rather than leaving
	// debris for the next Open's sweep. (A crash still leaves debris; the
	// sweep remains the backstop.)
	if err := c.writeFile(info.Store, func(w io.Writer) error {
		return docstore.WriteItems(w, nd, postorder.Items(t))
	}); err != nil {
		return DocInfo{}, err
	}
	// Load the committed store back before the manifest names it, so a
	// manifest entry always has a servable store. The file is read back
	// rather than re-encoded from t — the document must be served from
	// exactly the committed bytes. Its label table interns into nd, a
	// no-op: the document's labels are already there.
	s, err := c.loadStore(nd, info)
	if err != nil {
		c.removeFile(info.Store)
		return DocInfo{}, fmt.Errorf("corpus: loading the committed store of %q: %w", name, err)
	}

	man := *c.man
	man.Docs = append(append([]DocInfo{}, c.man.Docs...), info)
	man.NextID = id + 1
	man.Generation = c.gen + 1
	if err := docstore.WriteManifestFS(c.fs, filepath.Join(c.dir, manifestFile), &man); err != nil {
		s.region.Close()
		c.removeFile(info.Store)
		return DocInfo{}, err
	}
	c.man = &man
	c.stores[id] = s
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
// ids are never reused and generation-keyed caches stay valid), its
// postings leave the profile index, and its store is garbage-collected
// best-effort after the manifest commit.
//
// The shared dictionary is not shrunk: it stays bounded by every label
// the corpus has ever ingested, which keeps in-flight scans (that still
// resolve through it) valid. A query that snapshotted the corpus before
// the Remove still answers over the old document set: its snapshot holds
// the document's loaded store, columns included, which outlives the
// unlink.
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
	delete(c.stores, doomed.ID)
	c.gen = man.Generation
	c.publishLocked()

	// Best-effort file GC: the manifest no longer references the store, so
	// a failed unlink merely leaks disk until the next Open's orphan sweep
	// collects it; the manifest is the source of truth. A query that
	// snapshotted the corpus before this Remove never reads the file: it
	// scans the columns its snapshot holds.
	c.removeFile(doomed.Store)
	return nil
}

// writeFile durably commits a corpus-relative file through the atomicio
// protocol against the corpus's (possibly crash-injected) filesystem.
func (c *Corpus) writeFile(rel string, fill func(io.Writer) error) error {
	return atomicio.WriteFile(c.fs, filepath.Join(c.dir, rel), fill)
}

// removeFile best-effort unlinks a corpus-relative file. Failures are
// ignored: the manifest does not reference the file, so anything left
// behind is debris the next Open's orphan sweep collects.
func (c *Corpus) removeFile(rel string) {
	c.fs.Remove(filepath.Join(c.dir, rel))
}
