package docstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"tasm/internal/dict"
	"tasm/internal/postorder"
)

// validStore returns the encoding of a small well-formed document, the
// seed the fuzzer mutates.
func validStore(t testing.TB) []byte {
	t.Helper()
	d := dict.New()
	items := []postorder.Item{
		{Label: d.Intern("b"), Size: 1},
		{Label: d.Intern("c"), Size: 1},
		{Label: d.Intern("a"), Size: 3},
	}
	var buf bytes.Buffer
	if err := WriteItems(&buf, d, items); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// splitStore returns a store under a valid checksum whose third item, of
// size 2, would start inside the subtree of the second. Every size lies in
// [1, position], so a streaming reader reads it to the end, but no tree
// has these sizes: the store cannot be decoded into columns.
func splitStore(t testing.TB) []byte {
	t.Helper()
	d := dict.New()
	x := d.Intern("x")
	var buf bytes.Buffer
	if err := WriteItems(&buf, d, []postorder.Item{{Label: x, Size: 1}, {Label: x, Size: 2}, {Label: x, Size: 2}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader feeds arbitrary bytes to NewReader/Next: whatever the input
// — truncated streams, overlong varints, label ids past the dictionary,
// impossible subtree sizes, counts claiming gigabytes — the reader must
// return errors, never panic, and never allocate beyond the input size,
// because corpus ingest exposes this path to uploaded files.
func FuzzReader(f *testing.F) {
	valid := validStore(f)
	f.Add(valid)
	f.Add(splitStore(f))
	f.Add([]byte{})
	f.Add(append(bytes.Clone(valid), 0))
	f.Add([]byte("TASMPQ2\n"))
	// Huge label count, then huge node count, with no data behind them.
	f.Add(append([]byte("TASMPQ2\n"), 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add(append([]byte("TASMPQ2\n"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	// Varint longer than 64 bits.
	f.Add(append([]byte("TASMPQ2\n"), bytes.Repeat([]byte{0x80}, 11)...))
	// Truncations of the valid store at every boundary.
	for i := 0; i < len(valid); i++ {
		f.Add(valid[:i])
	}
	// Valid store with the tail corrupted (label id / size garbage).
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] = 0x7f
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(dict.New(), bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			if _, err := r.Next(); err != nil {
				if err != io.EOF && r.Remaining() == 0 {
					t.Fatalf("error after all %d items consumed: %v", r.Remaining(), err)
				}
				break
			}
		}
	})
}

// TestTruncatedStoreIsNotEOF pins a subtle contract: a store whose
// header promises more items than the stream holds must fail with an
// error that does NOT satisfy errors.Is(err, io.EOF) — queue consumers
// treat io.EOF as normal end-of-document and would otherwise silently
// rank a truncated store as a shorter document.
//
// Cuts start past the 4-byte CRC trailer: the reader by design never
// touches the trailer, so cuts inside it still parse fully (Verify, not
// Reader, is the integrity gate — see TestVerifyFlipAnyByte).
func TestTruncatedStoreIsNotEOF(t *testing.T) {
	valid := validStore(t)
	for cut := len(valid) - 5; cut > len(valid)-9; cut-- {
		r, err := NewReader(dict.New(), bytes.NewReader(valid[:cut]))
		if err != nil {
			continue // truncated inside the header: open-time error is fine
		}
		var last error
		for {
			if _, err := r.Next(); err != nil {
				last = err
				break
			}
		}
		if errors.Is(last, io.EOF) {
			t.Fatalf("cut at %d: truncated store surfaced as io.EOF (%v); consumers would treat it as a complete document", cut, last)
		}
	}
}

// TestVerifyRoundTrip: everything WriteItems produces passes Verify, and
// nothing without the store magic does — the unchecksummed "TASMPQ1\n"
// encoding of early builds included.
func TestVerifyRoundTrip(t *testing.T) {
	valid := validStore(t)
	if err := Verify(valid); err != nil {
		t.Fatalf("Verify(fresh store) = %v", err)
	}
	v1 := append([]byte("TASMPQ1\n"), valid[8:len(valid)-4]...)
	for _, data := range [][]byte{nil, []byte("NOTMAGIC"), v1} {
		if err := Verify(data); err == nil {
			t.Errorf("Verify accepted %q", data)
		}
	}
}

// TestVerifyRefusesSplitSubtree: a checksum proves the bytes are the ones
// written, not that they form a tree. A store whose sizes split an earlier
// subtree cannot be loaded, so Verify, which runs the load's decoder,
// refuses it.
func TestVerifyRefusesSplitSubtree(t *testing.T) {
	if err := Verify(splitStore(t)); err == nil {
		t.Fatal("Verify accepted a store whose sizes split an earlier subtree")
	}
}

// TestVerifyFlipAnyByte is the acceptance property of the v2 format:
// flipping ANY single byte of a store — magic, dictionary, items, or the
// trailer itself — must be detected by Verify. CRC-32C guarantees this
// for all ≤32-bit burst errors, which covers every single-byte flip.
func TestVerifyFlipAnyByte(t *testing.T) {
	valid := validStore(t)
	// 0x03 flips the magic's version byte '2' to '1', the unchecksummed
	// format of early builds, which is no longer read: a bad magic.
	for i := range valid {
		for _, bit := range []byte{0x01, 0x03, 0x80, 0xff} {
			mut := append([]byte(nil), valid...)
			mut[i] ^= bit
			if err := Verify(mut); err == nil {
				t.Fatalf("flipping byte %d (xor %#x) went undetected", i, bit)
			}
		}
	}
}

// FuzzVerify pins Verify to the load it stands for, in both directions:
// Verify accepts an image exactly when its CRC-32C trailer matches and
// ParseImage plus Image.Columns decode it — the steps a corpus takes to
// serve a store. Verify never panics.
func FuzzVerify(f *testing.F) {
	valid := validStore(f)
	f.Add(valid)
	f.Add(splitStore(f))
	f.Add([]byte{})
	f.Add([]byte("TASMPQ2\n"))
	for i := 0; i < len(valid); i++ {
		f.Add(valid[:i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data)
		crcOK := n >= len(magicV2)+4 && crc32.Checksum(data[:n-4], crcTable) == binary.LittleEndian.Uint32(data[n-4:])
		im, decodeErr := ParseImage(data)
		if decodeErr == nil {
			_, decodeErr = im.Columns(im.Remap(dict.New()))
		}
		verifyErr := Verify(data)
		if (verifyErr == nil) != (crcOK && decodeErr == nil) {
			t.Fatalf("Verify = %v, but checksum ok = %v and decode = %v", verifyErr, crcOK, decodeErr)
		}
	})
}

// TestReaderRejectsCorruptSizes pins the hardening behaviour the fuzzer
// relies on: impossible subtree sizes and out-of-range label ids are
// errors, not panics.
func TestReaderRejectsCorruptSizes(t *testing.T) {
	d := dict.New()
	var buf bytes.Buffer
	buf.WriteString("TASMPQ2\n")
	buf.WriteByte(1) // one label
	buf.WriteByte(1) // of length 1
	buf.WriteByte('x')
	buf.WriteByte(2) // two items
	buf.WriteByte(0) // item 1: label 0
	buf.WriteByte(9) // size 9 > position 1: corrupt
	r, err := NewReader(d, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("want error for subtree size exceeding position")
	}
}
