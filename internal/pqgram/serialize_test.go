package pqgram

import (
	"bufio"
	"bytes"
	"testing"

	"tasm/internal/dict"
	"tasm/internal/tree"
)

func TestProfileRoundTrip(t *testing.T) {
	d := dict.New()
	a, err := tree.Parse(d, "{a{b{c}{d}}{b}{e{f}}}")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tree.Parse(d, "{a{b{c}}{b}{x{f}}}")
	if err != nil {
		t.Fatal(err)
	}
	pa, err := New(a, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := New(b, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Distance(pa, pb)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := pa.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// Append trailing bytes: ReadProfile must stop exactly at the
	// profile's end when given a ByteReader, as corpus profile files
	// require.
	buf.WriteString("TRAILER")
	br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	got, err := ReadProfile(br)
	if err != nil {
		t.Fatal(err)
	}
	if got.P() != 2 || got.Q() != 3 || got.Size() != pa.Size() {
		t.Fatalf("round-trip changed shape/size: got (%d,%d) size %d", got.P(), got.Q(), got.Size())
	}
	rest := make([]byte, 7)
	if _, err := br.Read(rest); err != nil || string(rest) != "TRAILER" {
		t.Fatalf("profile read consumed trailing bytes: rest=%q err=%v", rest, err)
	}
	d2, err := Distance(got, pb)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != want {
		t.Fatalf("distance after round-trip %d, want %d", d2, want)
	}

	// Serialization must be deterministic for byte-identical corpus files.
	var buf2 bytes.Buffer
	if err := pa.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes()[:buf.Len()-7], buf2.Bytes()) {
		t.Fatal("profile serialization is not deterministic")
	}
}

func TestReadProfileCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTMAGIC"),
		"truncated": []byte("TASMPF1\n\x02"),
		"zero p":    []byte("TASMPF1\n\x00\x03\x00"),
		"huge count no data": append([]byte("TASMPF1\n\x02\x03"),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		// Write emits hashes strictly ascending; anything else is corrupt.
		"descending hashes": []byte("TASMPF1\n\x02\x03\x02\x05\x01\x03\x01"),
		"duplicate hash":    []byte("TASMPF1\n\x02\x03\x02\x05\x01\x05\x01"),
		"multiplicity 2^31": []byte("TASMPF1\n\x02\x03\x01\x05\x80\x80\x80\x80\x08"),
	}
	if _, err := ReadProfile(bytes.NewReader([]byte("TASMPF1\n\x02\x03\x02\x03\x01\x05\x7f"))); err != nil {
		t.Fatalf("ascending hashes rejected: %v", err)
	}
	for name, data := range cases {
		if _, err := ReadProfile(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}
