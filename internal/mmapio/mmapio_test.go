package mmapio

import (
	"bytes"
	"crypto/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Map serves the file's bytes.
func TestMapBytes(t *testing.T) {
	want := make([]byte, 123457)
	if _, err := rand.Read(want); err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, want)

	m, err := Map(path)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	defer m.Close()
	if !bytes.Equal(m.Bytes(), want) {
		t.Error("mapped bytes differ from file contents")
	}
}

func TestEmptyFile(t *testing.T) {
	r, err := Map(writeTemp(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Bytes()); n != 0 {
		t.Errorf("%d bytes, want 0", n)
	}
	if err := r.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestMissingFile(t *testing.T) {
	if _, err := Map(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("Map of missing file succeeded")
	}
}

func TestCloseIdempotent(t *testing.T) {
	r, err := Map(writeTemp(t, []byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Close(); err != nil {
			t.Errorf("Close #%d: %v", i+1, err)
		}
	}
	var nilRegion *Region
	if err := nilRegion.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// A file renamed or unlinked while mapped keeps serving its old bytes.
func TestReadableAfterUnlink(t *testing.T) {
	want := []byte("survives unlink")
	path := writeTemp(t, want)
	r, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Bytes(), want) {
		t.Error("bytes changed after unlink")
	}
}

// Concurrent readers over one region. Run under -race in CI.
func TestConcurrentReaders(t *testing.T) {
	data := make([]byte, 1<<16)
	for i := range data {
		data[i] = byte(i * 31)
	}
	path := writeTemp(t, data)
	r, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := r.Bytes()
			var sum byte
			for _, v := range b {
				sum += v
			}
			_ = sum
			if len(b) != len(data) {
				t.Errorf("reader saw %d bytes, want %d", len(b), len(data))
			}
		}()
	}
	wg.Wait()
}
