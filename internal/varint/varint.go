// Package varint implements the unsigned LEB128 integer encoding of the
// document store format, for its writer and both its readers. One codec,
// one set of limits: a fix here fixes every reader.
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

// Decode decodes one varint from the front of b, returning the value and
// the number of bytes consumed. It is the in-memory counterpart of Read
// for zero-copy readers that walk a byte slice directly: no reader
// indirection, no per-byte interface call. A slice that ends mid-varint
// yields io.ErrUnexpectedEOF (there is no "clean end" reading from a
// region a header promised more items in), an over-long encoding
// ErrTooLong.
func Decode(b []byte) (uint64, int, error) {
	var v uint64
	var shift uint
	for i, by := range b {
		if shift >= 64 {
			return 0, 0, ErrTooLong
		}
		v |= uint64(by&0x7f) << shift
		if by < 0x80 {
			return v, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, io.ErrUnexpectedEOF
}

// Read decodes one varint from r. It returns ErrTooLong for encodings
// past 64 bits and passes through the reader's error (io.EOF when the
// stream ends cleanly before the first byte) otherwise.
func Read(r io.ByteReader) (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, ErrTooLong
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}
