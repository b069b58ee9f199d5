//go:build !unix

package mmapio

import (
	"fmt"
	"os"
)

// Map reads path into the heap on platforms without mmap support. Same
// interface and lifetime rules as the mapped path.
func Map(path string) (*Region, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mmapio: %w", err)
	}
	return &Region{data: data}, nil
}

func (r *Region) release() error {
	r.data = nil
	return nil
}
