package docstore

import (
	"fmt"
	"io"
	"math"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/varint"
)

// Image is a store file parsed in place: the label table decoded once,
// and the item region located but not decoded. The corpus parses each
// store into an Image when it loads it (at Open or ingest), computes one
// label remap into its dictionary with Remap, and decodes the items once
// into the columns every query scans (Columns). Verify runs the same
// three steps, so a store it passes is one the corpus can load.
//
// The backing bytes are typically an mmapio.Region; an Image keeps them
// alive and must not outlive an explicit Close of the region. Label
// strings are heap copies, NOT views into the backing bytes — the
// dictionary retains labels indefinitely, far past any one mapping's
// lifetime.
//
// An Image is immutable after ParseImage and safe for concurrent use.
type Image struct {
	data     []byte
	labels   []string
	itemsOff int
	count    uint64
}

// ParseImage decodes a store image's header: magic, label table, and
// node count. The item region is validated lazily, by ImageReader, with
// exactly the checks the streaming Reader applies — ParseImage succeeds
// on a store whose items are corrupt, just as NewReader does. Use Verify
// for whole-file integrity.
func ParseImage(data []byte) (*Image, error) {
	if len(data) < len(magicV2) {
		return nil, fmt.Errorf("docstore: bad magic %q", data)
	}
	if string(data[:len(magicV2)]) != magicV2 {
		return nil, fmt.Errorf("docstore: bad magic %q", data[:len(magicV2)])
	}
	off := len(magicV2)
	labelCount, n, err := varint.Decode(data[off:])
	if err != nil {
		return nil, fmt.Errorf("docstore: reading label count: %w", err)
	}
	off += n
	// Counts are untrusted; cap the initial allocation and let growth be
	// driven by labels actually decoded, mirroring NewReader.
	labels := make([]string, 0, min(labelCount, 4096))
	for i := uint64(0); i < labelCount; i++ {
		ln, n, err := varint.Decode(data[off:])
		if err != nil {
			return nil, fmt.Errorf("docstore: reading label %d: %w", i, err)
		}
		off += n
		if ln > uint64(len(data)-off) {
			return nil, fmt.Errorf("docstore: reading label %d: %w", i, io.ErrUnexpectedEOF)
		}
		// string() copies out of the mapping; see the type comment.
		labels = append(labels, string(data[off:off+int(ln)]))
		off += int(ln)
	}
	count, n, err := varint.Decode(data[off:])
	if err != nil {
		return nil, fmt.Errorf("docstore: reading node count: %w", err)
	}
	off += n
	return &Image{data: data, labels: labels, itemsOff: off, count: count}, nil
}

// NodeCount returns the number of items the header promises.
//
//tasm:hotpath
func (im *Image) NodeCount() uint64 { return im.count }

// Labels returns the decoded label table. The slice is shared; callers
// must not modify it.
func (im *Image) Labels() []string { return im.labels }

// Remap interns the image's label table into d and returns the stored-id
// → d-id translation used by ImageReader. Computed once per (document,
// dictionary generation) by the corpus; the result stays valid under any
// dict.Overlay of a base d, because overlay ids strictly extend the
// base's.
func (im *Image) Remap(d dict.Dict) []int {
	remap := make([]int, len(im.labels))
	for i, l := range im.labels {
		remap[i] = d.Intern(l)
	}
	return remap
}

// Columns decodes the image's item region once into random-access
// postorder columns, labels already translated through remap (from
// Remap). The items are read through an ImageReader, so its label-range
// and size checks stay the only decoder, and postorder.BuildColumns adds
// the whole-document well-formedness proof; any failure returns an error
// and no columns.
//
// The header's node count is untrusted: an item is at least two bytes,
// so a count the bytes present cannot hold is refused before anything is
// allocated.
func (im *Image) Columns(remap []int) (*postorder.Columns, error) {
	if avail := uint64(len(im.data)-im.itemsOff) / 2; im.count > avail || im.count > math.MaxInt32 {
		return nil, fmt.Errorf("docstore: header promises %d items, %d bytes follow", im.count, len(im.data)-im.itemsOff)
	}
	var r ImageReader
	r.Reset(im, remap)
	return postorder.BuildColumns(&r, int(im.count))
}

// ImageReader streams a parsed Image as a postorder queue, decoding
// varints straight from the image bytes. It performs the same validation
// as the streaming Reader — label ids inside the remap, subtree sizes in
// [1, pos], truncation as io.ErrUnexpectedEOF — so the two are
// byte-identical over any input (fuzz-pinned). Zero allocations after
// Reset; pool and reuse across documents.
type ImageReader struct {
	data  []byte
	off   int
	n     uint64
	pos   uint64
	remap []int
	err   error
}

// Reset points r at an image's item region with the given label remap
// (from Image.Remap, possibly cached) and clears all progress state.
//
//tasm:hotpath
func (r *ImageReader) Reset(im *Image, remap []int) {
	r.data = im.data
	r.off = im.itemsOff
	r.n = im.count
	r.pos = 0
	r.remap = remap
	r.err = nil
}

// Next implements postorder.Queue.
//
//tasm:hotpath
func (r *ImageReader) Next() (postorder.Item, error) {
	if r.err != nil {
		return postorder.Item{}, r.err
	}
	if r.n == 0 {
		return postorder.Item{}, io.EOF
	}
	label, n, err := varint.Decode(r.data[r.off:])
	if err != nil {
		r.err = fmt.Errorf("docstore: reading item label: %w", err) //tasm:allow alloc — cold error path: corrupt input only
		return postorder.Item{}, r.err
	}
	r.off += n
	size, n, err := varint.Decode(r.data[r.off:])
	if err != nil {
		r.err = fmt.Errorf("docstore: reading item size: %w", err) //tasm:allow alloc — cold error path: corrupt input only
		return postorder.Item{}, r.err
	}
	r.off += n
	if label >= uint64(len(r.remap)) {
		r.err = fmt.Errorf("docstore: label id %d outside dictionary of %d", label, len(r.remap)) //tasm:allow alloc — cold error path: corrupt input only
		return postorder.Item{}, r.err
	}
	r.pos++
	// Same postorder invariant as Reader.Next: the i-th node's subtree
	// holds at most the i nodes seen so far.
	if size < 1 || size > r.pos {
		r.err = fmt.Errorf("docstore: item %d has subtree size %d, want 1..%d", r.pos, size, r.pos) //tasm:allow alloc — cold error path: corrupt input only
		return postorder.Item{}, r.err
	}
	r.n--
	return postorder.Item{Label: r.remap[label], Size: int(size)}, nil
}

// Remaining returns the number of items left to read.
func (r *ImageReader) Remaining() uint64 { return r.n }
