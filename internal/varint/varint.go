// Package varint implements the unsigned LEB128 integer encoding of the
// document store format: the writer's encoder, and the error its decoder
// (docstore.Reader) reports for an encoding past 64 bits.
package varint

import (
	"errors"
	"io"
)

// ErrTooLong reports a varint whose encoding exceeds 64 bits.
var ErrTooLong = errors.New("varint exceeds 64 bits")

// Write encodes v to w. bytes.Buffer and bufio.Writer both satisfy
// io.ByteWriter; their write errors are sticky, so callers that flush or
// inspect afterwards may ignore the returned error.
func Write(w io.ByteWriter, v uint64) error {
	for v >= 0x80 {
		if err := w.WriteByte(byte(v) | 0x80); err != nil {
			return err
		}
		v >>= 7
	}
	return w.WriteByte(byte(v))
}
