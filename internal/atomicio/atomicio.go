// Package atomicio owns the crash-safe file commit protocol shared by
// every piece of persistent corpus state (postorder stores, the
// manifest):
//
//	create temp in the target directory
//	fill it with the payload
//	chmod it world-readable (0644 minus the process umask)
//	fsync the file
//	close and rename it over the target
//	fsync the parent directory
//
// The rename is the commit point. Before it, the target either does not
// exist or still holds its previous content; after it, the target holds
// the new content in full. The file fsync before the rename means the
// content is on stable storage before the name points at it, and the
// directory fsync after means the name itself survives power loss — plain
// temp+rename guards against process death only, not against a cache that
// never reached the platter.
//
// Every filesystem mutation goes through the FS interface so tests can
// interpose: internal/crashinject implements FS to stop the protocol
// (deterministically, mid-write if scripted) at any step, which is how
// the corpus crash-point property tests drive ingest and removal into
// every possible torn state and assert recovery.
package atomicio

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the commit protocol writes through.
type File interface {
	io.Writer
	// Name returns the file's path, as os.File.Name does.
	Name() string
	// Chmod sets the file's permission bits.
	Chmod(mode os.FileMode) error
	// Sync flushes the file's content to stable storage.
	Sync() error
	// Close closes the file.
	Close() error
}

// Dir is an open directory handle, held only long enough to fsync the
// directory entry a rename just created.
type Dir interface {
	Sync() error
	Close() error
}

// FS abstracts the filesystem mutations of the commit protocol. The
// default implementation is OS; tests substitute fault- or crash-
// injecting implementations.
type FS interface {
	// CreateTemp creates a new temporary file in dir, as os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath, as os.Rename.
	Rename(oldpath, newpath string) error
	// Remove deletes a file, as os.Remove.
	Remove(name string) error
	// OpenDir opens a directory for syncing.
	OpenDir(name string) (Dir, error)
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) OpenDir(name string) (Dir, error) { return os.Open(name) }

// OS is the real filesystem, the FS every production caller uses.
var OS FS = osFS{}

// TempPrefix is the name prefix of every in-flight temp file the commit
// protocol creates. A crash strands at most one such file per interrupted
// commit; corpus.Open sweeps files carrying this prefix that no rename
// ever claimed.
const TempPrefix = ".tmp-"

// FilePerm is the permission bits committed files end up with: 0644
// restricted by the process umask, so stores written by one user stay
// readable by operators and backup jobs (os.CreateTemp alone would leave
// them 0600 — unreadable to everyone else forever, since the umask never
// gets a say on temp files).
func FilePerm() os.FileMode { return 0o644 &^ processUmask() }

// WriteFile commits the payload produced by fill to path using the full
// durable protocol. On any error nothing is committed: the target keeps
// its previous content (or stays absent) and the temp file is removed
// best-effort — except after a simulated crash, when the injected FS
// refuses the cleanup too, exactly like a real power loss would.
func WriteFile(fs FS, path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return err
	}
	cleanup := func() {
		tmp.Close()
		fs.Remove(tmp.Name())
	}
	bw := bufio.NewWriter(tmp)
	if err := fill(bw); err != nil {
		cleanup()
		return err
	}
	if err := bw.Flush(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Chmod(FilePerm()); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		fs.Remove(tmp.Name())
		return err
	}
	if err := fs.Rename(tmp.Name(), path); err != nil {
		fs.Remove(tmp.Name())
		return err
	}
	return SyncDir(fs, dir)
}

// SyncDir fsyncs a directory, making the entries a rename created (or
// removed) durable. Callers that just unlinked a committed file call it
// to persist the disappearance too.
func SyncDir(fs FS, dir string) error {
	d, err := fs.OpenDir(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
