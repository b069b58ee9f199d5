// Package docstore implements a binary on-disk document format holding a
// postorder queue directly: the sequence of (label id, subtree size) pairs
// plus the label dictionary.
//
// The TASM paper argues (Sections III and VIII) that the postorder queue
// abstracts from the underlying XML storage model and can be implemented
// by "any XML processing or storage system that allows an efficient
// postorder traversal", citing interval-encoding relational stores [24].
// This package is that storage substrate: documents parsed once (from XML
// or a generator) are persisted in a form whose scan is a straight
// sequential read with no XML parsing cost, mirroring how a production
// system would drive TASM from a database rather than a text file.
//
// # Store format
//
// All integers are unsigned LEB128 varints:
//
//	magic "TASMPQ2\n"
//	labelCount, then labelCount × (byteLen, bytes)   – the label table
//	nodeCount, then nodeCount × (labelID, size)      – the postorder queue
//	crc32c                                           – 4-byte LE trailer
//
// A labelID is a position in the label table. WriteItems lists only the
// labels its items use, in ascending dictionary id order; readers accept
// any table, and stores of earlier builds list the writer's whole
// dictionary.
//
// The trailer is the CRC-32C (Castagnoli) checksum of everything before
// it, magic included, so any single flipped byte is detected. This is the
// only format: a file with any other magic (the unchecksummed "TASMPQ1\n"
// of early builds included) is corrupt. The checksum is verified by
// Decode — which Verify and the corpus's store load both call — never by
// Reader on a scan.
//
// Readers treat every count in the stream as untrusted: allocations are
// bounded by the bytes actually present, label ids must fall inside the
// stored dictionary, and the i-th item's subtree size must lie in [1, i]
// (a postorder invariant), so corrupt or truncated stores surface as
// errors rather than panics or huge allocations. postorder.Validate
// remains the full well-formedness check.
//
// # Corpus manifest
//
// A corpus directory groups many stores under a manifest, manifest.json:
//
//	{
//	  "version": 1,
//	  "p": 2, "q": 3,          // pq-gram shape of every profile
//	  "next_id": 3,            // ids are never reused
//	  "docs": [
//	    {"id": 1, "name": "dblp", "nodes": 123, "root_label": "dblp",
//	     "store": "docs/1.store"},
//	    ...
//	  ]
//	}
//
// Store paths are relative to the corpus directory. The manifest is
// rewritten atomically (temp file + rename) on every ingest, removal and
// quarantine. Manifests of earlier builds carry a "profile" path per
// document as well; it is ignored, and the next rewrite drops it.
package docstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/varint"
)

// magicV2 opens every store; the body is followed by a 4-byte
// little-endian CRC-32C trailer over everything before it.
const magicV2 = "TASMPQ2\n"

// crcTable is the Castagnoli polynomial: hardware-accelerated on amd64
// and arm64, and detects all single-byte (indeed any ≤32-bit burst)
// errors — the acceptance bar for the corpus scrub.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports that a store file's content does not match its
// CRC-32C trailer; test with errors.Is.
var ErrChecksum = errors.New("docstore: checksum mismatch")

// WriteItems persists a postorder queue (as a materialized item slice
// using label identifiers from d) to w in the v2 format. The label table
// holds only the labels the items use, in ascending id order, and an item
// names its label by its position in that table, so a store's size
// follows its document, not the dictionary it was parsed under. The table
// is stored ahead of the items, so it must be complete first — which is
// why this takes a slice rather than a live Queue: sources that discover
// labels on the fly must finish scanning before their dictionary is
// final.
func WriteItems(w io.Writer, d dict.Dict, items []postorder.Item) error {
	ids := make([]int, len(items))
	for i, it := range items {
		if it.Label < 0 || it.Label >= d.Len() {
			return fmt.Errorf("docstore: item has label id %d outside dictionary of %d", it.Label, d.Len())
		}
		if it.Size < 1 {
			return fmt.Errorf("docstore: item has size %d, want ≥ 1", it.Size)
		}
		ids[i] = it.Label
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	h := crc32.New(crcTable)
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	if _, err := bw.WriteString(magicV2); err != nil {
		return err
	}
	varint.Write(bw, uint64(len(ids)))
	for _, id := range ids {
		l := d.Label(id)
		varint.Write(bw, uint64(len(l)))
		if _, err := bw.WriteString(l); err != nil {
			return err
		}
	}
	varint.Write(bw, uint64(len(items)))
	for _, it := range items {
		j, _ := slices.BinarySearch(ids, it.Label)
		varint.Write(bw, uint64(j))
		varint.Write(bw, uint64(it.Size))
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The trailer goes straight to w: it covers everything hashed so far
	// and must not feed back into the hash.
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], h.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

// Verify checks a whole store file image for corruption: Decode with the
// checksum verified, into a scratch dictionary. A checksum mismatch
// satisfies errors.Is(err, ErrChecksum); any single flipped byte is one.
// Verify passes exactly when the store can be loaded and served, not
// merely when its bytes are the ones some writer produced.
func Verify(data []byte) error {
	_, err := Decode(dict.New(), data, true)
	return err
}

// Decode loads a whole store image the way a corpus serves it: when
// verify is set it first checks the magic and the CRC-32C trailer over
// everything before it, then parses the image (ParseImage), interns its
// label table into d and decodes its items into columns (Image.Columns).
func Decode(d dict.Dict, data []byte, verify bool) (*postorder.Columns, error) {
	if verify {
		if !bytes.HasPrefix(data, []byte(magicV2)) {
			return nil, fmt.Errorf("docstore: bad magic %q", data[:min(len(data), len(magicV2))])
		}
		if len(data) < len(magicV2)+4 {
			return nil, fmt.Errorf("docstore: store of %d bytes is too short for a checksum trailer", len(data))
		}
		body := data[:len(data)-4]
		want := binary.LittleEndian.Uint32(data[len(data)-4:])
		if got := crc32.Checksum(body, crcTable); got != want {
			return nil, fmt.Errorf("%w: crc32c %08x, trailer says %08x", ErrChecksum, got, want)
		}
	}
	im, err := ParseImage(data)
	if err != nil {
		return nil, err
	}
	return im.Columns(im.Remap(d))
}

// Reader streams a persisted document as a postorder queue. Labels are
// re-interned into the target dictionary on open, so identifiers are
// compatible with queries interned in the same dictionary.
type Reader struct {
	br *bufio.Reader
	// remap translates stored label ids to ids in the caller's dict.
	remap []int
	n     uint64 // remaining items
	pos   uint64 // 1-based postorder id of the item about to be read
	err   error
}

// NewReader opens a persisted document from r, merging its dictionary
// into d.
func NewReader(d dict.Dict, r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(magicV2))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("docstore: reading magic: %w", err)
	}
	// The CRC trailer follows the last item, which the reader never
	// reaches (Next returns io.EOF once the item count is exhausted).
	// Checksum verification is Verify's job, off the scan path.
	if string(head) != magicV2 {
		return nil, fmt.Errorf("docstore: bad magic %q", head)
	}
	labelCount, err := varint.Read(br)
	if err != nil {
		return nil, fmt.Errorf("docstore: reading label count: %w", err)
	}
	// The counts in the header are untrusted: a corrupt or truncated
	// stream may claim arbitrarily many labels or bytes. Allocations are
	// therefore driven by the bytes actually present — capped initial
	// capacities, chunked label reads — so garbage input produces an
	// error, never an attacker-sized allocation.
	remap := make([]int, 0, min(labelCount, 4096))
	for i := uint64(0); i < labelCount; i++ {
		n, err := varint.Read(br)
		if err != nil {
			return nil, fmt.Errorf("docstore: reading label %d: %w", i, err)
		}
		label, err := readLabel(br, n)
		if err != nil {
			return nil, fmt.Errorf("docstore: reading label %d: %w", i, err)
		}
		remap = append(remap, d.Intern(label))
	}
	count, err := varint.Read(br)
	if err != nil {
		return nil, fmt.Errorf("docstore: reading node count: %w", err)
	}
	return &Reader{br: br, remap: remap, n: count}, nil
}

// readLabel reads an n-byte label. Sane lengths — anything up to the
// chunk size, i.e. every label a real writer produces — are read once
// into a right-sized buffer and converted, with no intermediate copy.
// Larger claimed lengths are untrusted (a corrupt header can promise
// gigabytes): those fall back to bounded chunks, so the allocation is
// driven by bytes actually present and a lying header fails with an
// error once the stream runs dry.
func readLabel(br *bufio.Reader, n uint64) (string, error) {
	const chunkSize = 64 << 10
	if n <= chunkSize {
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	var sb []byte
	for n > 0 {
		c := min(n, chunkSize)
		buf := make([]byte, c)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		sb = append(sb, buf...)
		n -= c
	}
	return string(sb), nil
}

// Next implements postorder.Queue.
func (r *Reader) Next() (postorder.Item, error) {
	if r.err != nil {
		return postorder.Item{}, r.err
	}
	if r.n == 0 {
		return postorder.Item{}, io.EOF
	}
	label, err := varint.Read(r.br)
	if err != nil {
		r.err = fmt.Errorf("docstore: reading item label: %w", noEOF(err))
		return postorder.Item{}, r.err
	}
	size, err := varint.Read(r.br)
	if err != nil {
		r.err = fmt.Errorf("docstore: reading item size: %w", noEOF(err))
		return postorder.Item{}, r.err
	}
	if label >= uint64(len(r.remap)) {
		r.err = fmt.Errorf("docstore: label id %d outside dictionary of %d", label, len(r.remap))
		return postorder.Item{}, r.err
	}
	r.pos++
	// In a postorder queue the i-th node's subtree holds at most the i
	// nodes seen so far; a size outside [1, i] cannot come from a
	// well-formed document, only from corruption, and rejecting it here
	// keeps downstream int conversions and buffer sizing safe.
	if size < 1 || size > r.pos {
		r.err = fmt.Errorf("docstore: item %d has subtree size %d, want 1..%d", r.pos, size, r.pos)
		return postorder.Item{}, r.err
	}
	r.n--
	return postorder.Item{Label: r.remap[label], Size: int(size)}, nil
}

// Remaining returns the number of items left to read.
func (r *Reader) Remaining() uint64 { return r.n }

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF. Reader.Next runs
// out of input only when the header promised more items than the stream
// holds — and the error it returns must NOT satisfy errors.Is(err,
// io.EOF), because queue consumers treat io.EOF as normal end-of-document
// and would silently rank a truncated store as a shorter document.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
