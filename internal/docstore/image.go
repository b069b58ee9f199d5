package docstore

import (
	"fmt"
	"math"

	"tasm/internal/dict"
	"tasm/internal/postorder"
)

// Image is a store file parsed in memory: the label table decoded once,
// and the item region located but not decoded. The corpus parses each
// store into an Image when it loads it (at Open or ingest), computes one
// label remap into its dictionary with Remap, and decodes the items once
// into the columns every query scans (Columns), then drops the Image and
// the file's bytes. Verify runs the same three steps, so a store it
// passes is one the corpus can load.
//
// An Image keeps the bytes it was parsed from, which must not change
// while it is read. Label strings are copies, not views into those bytes
// — the dictionary retains labels indefinitely, far past the bytes'
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
// node count, read by the same header reader as NewReader's. The item
// region is validated lazily, by a Reader reset onto the image —
// ParseImage succeeds on a store whose items are corrupt, just as
// NewReader does. Use Verify for whole-file integrity.
func ParseImage(data []byte) (*Image, error) {
	r := Reader{buf: data}
	labels, count, err := r.readHeader()
	if err != nil {
		return nil, err
	}
	return &Image{data: data, labels: labels, itemsOff: r.off, count: count}, nil
}

// NodeCount returns the number of items the header promises.
//
//tasm:hotpath
func (im *Image) NodeCount() uint64 { return im.count }

// Labels returns the decoded label table. The slice is shared; callers
// must not modify it.
func (im *Image) Labels() []string { return im.labels }

// Remap interns the image's label table into d and returns the stored-id
// → d-id translation a Reader reset onto the image uses. The result stays
// valid under any dict.Overlay of a base d, because overlay ids strictly
// extend the base's.
func (im *Image) Remap(d dict.Dict) []int { return intern(d, im.labels) }

// Columns decodes the image's item region once into random-access
// postorder columns, labels already translated through remap (from
// Remap). The items are read through a Reader, the format's one decoder,
// so its label-range and size checks apply, and postorder.BuildColumns
// adds the whole-document well-formedness proof; any failure returns an
// error and no columns.
//
// The header's node count is untrusted: an item is at least two bytes,
// so a count the bytes present cannot hold is refused before anything is
// allocated.
func (im *Image) Columns(remap []int) (*postorder.Columns, error) {
	if avail := uint64(len(im.data)-im.itemsOff) / 2; im.count > avail || im.count > math.MaxInt32 {
		return nil, fmt.Errorf("docstore: header promises %d items, %d bytes follow", im.count, len(im.data)-im.itemsOff)
	}
	var r Reader
	r.Reset(im, remap)
	return postorder.BuildColumns(&r, int(im.count))
}
