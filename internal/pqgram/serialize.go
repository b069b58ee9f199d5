package pqgram

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"

	"tasm/internal/varint"
)

// profileMagic heads a serialized pq-gram profile.
const profileMagic = "TASMPF1\n"

// Write serializes the profile. The format (all integers unsigned LEB128
// varints) is:
//
//	magic "TASMPF1\n"
//	p, q                                     – the gram shape
//	gramCount, then gramCount × (hash, mult) – the bag, by 64-bit gram hash
//
// Grams are written in ascending hash order, so equal profiles serialize
// to identical bytes (corpus files are reproducible and diffable).
func (pr *Profile) Write(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString(profileMagic)
	varint.Write(&buf, uint64(pr.p))
	varint.Write(&buf, uint64(pr.q))
	varint.Write(&buf, uint64(len(pr.hashes)))
	for i, h := range pr.hashes {
		varint.Write(&buf, h)
		varint.Write(&buf, uint64(pr.counts[i]))
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// ReadProfile deserializes a profile written by Write. When r implements
// io.ByteReader (e.g. *bufio.Reader) it is read exactly to the end of the
// profile, leaving any following bytes unconsumed — corpus profile files
// append a label histogram after the profile and rely on this; otherwise
// r is wrapped in a buffer and may be read past the profile's end.
//
// All counts in the stream are untrusted: allocations grow with the bytes
// actually present, so truncated or corrupt input yields an error, not an
// attacker-sized allocation. Write has always emitted the grams in
// strictly ascending hash order, and a stream that does not — a duplicate
// or out-of-order hash — is rejected as corrupt, so the profile is read
// straight into its sorted form.
func ReadProfile(r io.Reader) (*Profile, error) {
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if !ok {
		br = bufio.NewReader(r)
	}
	head := make([]byte, len(profileMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("pqgram: reading profile magic: %w", err)
	}
	if string(head) != profileMagic {
		return nil, fmt.Errorf("pqgram: bad profile magic %q", head)
	}
	p, err := varint.Read(br)
	if err != nil {
		return nil, fmt.Errorf("pqgram: reading p: %w", err)
	}
	q, err := varint.Read(br)
	if err != nil {
		return nil, fmt.Errorf("pqgram: reading q: %w", err)
	}
	if p < 1 || q < 1 || p > 1<<20 || q > 1<<20 {
		return nil, fmt.Errorf("pqgram: invalid profile shape (%d,%d)", p, q)
	}
	count, err := varint.Read(br)
	if err != nil {
		return nil, fmt.Errorf("pqgram: reading gram count: %w", err)
	}
	n := min(count, 4096)
	pr := &Profile{p: int(p), q: int(q), hashes: make([]uint64, 0, n), counts: make([]int32, 0, n)}
	for i := uint64(0); i < count; i++ {
		h, err := varint.Read(br)
		if err != nil {
			return nil, fmt.Errorf("pqgram: reading gram %d: %w", i, err)
		}
		mult, err := varint.Read(br)
		if err != nil {
			return nil, fmt.Errorf("pqgram: reading gram %d multiplicity: %w", i, err)
		}
		if mult < 1 || mult > math.MaxInt32 {
			return nil, fmt.Errorf("pqgram: gram %d has multiplicity %d", i, mult)
		}
		if i > 0 && h <= pr.hashes[i-1] {
			return nil, fmt.Errorf("pqgram: gram %d hash %#x does not ascend past %#x", i, h, pr.hashes[i-1])
		}
		pr.hashes = append(pr.hashes, h)
		pr.counts = append(pr.counts, int32(mult))
		pr.total += int(mult)
	}
	return pr, nil
}
