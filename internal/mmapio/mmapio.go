// Package mmapio maps files into memory read-only, with a portable
// read-into-heap fallback behind the same interface.
//
// The corpus does not use it: a store is read once at load, decoded into
// columns and its bytes dropped. bench/layers.go maps stores with it to
// time the decoder over bytes the page cache holds.
//
// Two implementations sit behind Map, selected by build tag:
//
//   - unix (linux, darwin, …): mmap(2) with PROT_READ. The file
//     descriptor is closed immediately after mapping; the mapping keeps
//     the inode alive, so the file may be renamed or unlinked while its
//     bytes are read.
//   - everything else: the file is read whole into the heap. Same
//     interface, same lifetime rules, no page-cache sharing.
//
// # Lifetime
//
// A Region's bytes are valid until Close. Close is idempotent and NOT
// implicitly serialized against readers: unmapping while another
// goroutine still reads the bytes is a use-after-free (SIGSEGV on the
// mmap path). Owners that cannot prove quiescence should simply drop the
// Region instead — a finalizer unmaps it once the garbage collector
// proves nothing references it anymore.
package mmapio

import "sync/atomic"

// Region is a read-only byte region backed by a file mapping or a heap
// copy of the file.
type Region struct {
	data   []byte
	closed atomic.Bool
}

// Bytes returns the region's bytes. The slice must not be written to and
// must not be used after Close.
func (r *Region) Bytes() []byte { return r.data }

// Close releases the region: the mapping is unmapped, or the heap copy
// is released to the collector. Idempotent. See the package comment for
// the quiescence requirement; prefer dropping the last reference when
// concurrent readers may exist.
func (r *Region) Close() error {
	if r == nil || r.closed.Swap(true) {
		return nil
	}
	return r.release()
}
