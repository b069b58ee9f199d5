//go:build unix

package mmapio

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// Map maps path read-only. The returned region's bytes are served by the
// page cache; the file descriptor is closed before Map returns, and the
// mapping keeps the underlying inode alive across rename and unlink. An
// empty file yields an empty unmapped region (mmap(2) rejects length 0).
func Map(path string) (*Region, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mmapio: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mmapio: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		return &Region{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapio: %s: %d bytes exceeds address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmapio: mmap %s: %w", path, err)
	}
	r := &Region{data: data}
	// Unmap when the collector proves the region unreachable, so owners
	// may drop the last reference instead of proving reader quiescence
	// for an explicit Close (see the package comment).
	runtime.SetFinalizer(r, (*Region).finalize)
	return r, nil
}

func (r *Region) finalize() { _ = r.Close() }

func (r *Region) release() error {
	data := r.data
	r.data = nil
	if data == nil {
		return nil // an empty file's region maps nothing
	}
	runtime.SetFinalizer(r, nil)
	if err := syscall.Munmap(data); err != nil {
		return fmt.Errorf("mmapio: munmap: %w", err)
	}
	return nil
}
