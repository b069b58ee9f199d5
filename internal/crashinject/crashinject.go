// Package crashinject is the deterministic crash harness for the
// persistence layer — the disk-side sibling of internal/faultinject's
// network chaos proxy. It wraps an atomicio.FS and kills the simulated
// process at a scripted filesystem step: every mutation (temp creation,
// each write call, chmod, fsync, close, rename, unlink, directory sync)
// counts as one step, and when the armed step is reached the operation
// fails with ErrCrash and every later operation fails too — after a power
// loss nothing runs cleanup either.
//
// A crash during a write is torn: half of that write's bytes reach the
// file before the crash, the rest never do, modelling a partially flushed
// page. A crash anywhere else stops between operations.
//
// The intended use is an exhaustive sweep over every crash point of an
// operation:
//
//	inj := crashinject.New(atomicio.OS)
//	for at := 0; ; at++ {
//		dir := freshCopyOfBaseline()
//		inj.Arm(at)
//		err := operate(dir, inj) // ingest, remove, ...
//		if err == nil {
//			break // at exceeds the operation's step count: swept everything
//		}
//		// reopen dir with the real FS and assert it recovered
//	}
//
// Determinism holds because the step sequence of an operation is a pure
// function of its inputs: no timing, no randomness.
package crashinject

import (
	"errors"
	"os"
	"sync"

	"tasm/internal/atomicio"
)

// ErrCrash is the failure every operation at or after the armed crash
// point returns; test with errors.Is.
var ErrCrash = errors.New("crashinject: simulated crash")

// Injector is an atomicio.FS that crashes at a scripted step. The zero
// value is unusable; use New. An unarmed Injector passes everything
// through untouched.
type Injector struct {
	mu      sync.Mutex
	fs      atomicio.FS
	step    int
	crashAt int
	crashed bool
}

// New returns an Injector delegating to fs (usually atomicio.OS),
// initially unarmed.
func New(fs atomicio.FS) *Injector {
	return &Injector{fs: fs, crashAt: -1}
}

// Arm resets the step counter and schedules a crash at the given
// zero-based step of the operations that follow.
func (in *Injector) Arm(at int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.step = 0
	in.crashAt = at
	in.crashed = false
}

// Disarm clears any scheduled or delivered crash; subsequent operations
// pass through.
func (in *Injector) Disarm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashAt = -1
	in.crashed = false
}

// Crashed reports whether the armed crash has been delivered.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// tick advances the step counter and reports whether this step crashes.
// Once crashed, every step crashes: the simulated process is gone.
func (in *Injector) tick() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return true
	}
	if in.step == in.crashAt {
		in.crashed = true
	}
	in.step++
	return in.crashed
}

func (in *Injector) CreateTemp(dir, pattern string) (atomicio.File, error) {
	if in.tick() {
		return nil, ErrCrash
	}
	f, err := in.fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &crashFile{in: in, f: f}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if in.tick() {
		return ErrCrash
	}
	return in.fs.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if in.tick() {
		return ErrCrash
	}
	return in.fs.Remove(name)
}

func (in *Injector) OpenDir(name string) (atomicio.Dir, error) {
	if in.tick() {
		return nil, ErrCrash
	}
	d, err := in.fs.OpenDir(name)
	if err != nil {
		return nil, err
	}
	return &crashDir{in: in, d: d}, nil
}

var _ atomicio.FS = (*Injector)(nil)

// crashFile threads the injector through every file operation.
type crashFile struct {
	in *Injector
	f  atomicio.File
}

// Write is the torn-write site: crashing here writes the first half of
// p, then fails — a page-sized prefix made it to the medium, the rest
// never will.
func (c *crashFile) Write(p []byte) (int, error) {
	if c.in.tick() {
		n, _ := c.f.Write(p[:len(p)/2])
		return n, ErrCrash
	}
	return c.f.Write(p)
}

func (c *crashFile) Name() string { return c.f.Name() }

func (c *crashFile) Chmod(mode os.FileMode) error {
	if c.in.tick() {
		return ErrCrash
	}
	return c.f.Chmod(mode)
}

func (c *crashFile) Sync() error {
	if c.in.tick() {
		return ErrCrash
	}
	return c.f.Sync()
}

func (c *crashFile) Close() error {
	if c.in.tick() {
		// A crashed process still loses its descriptors: close the real
		// file so sweeps of the temp can unlink it on every platform,
		// but report the crash.
		c.f.Close()
		return ErrCrash
	}
	return c.f.Close()
}

type crashDir struct {
	in *Injector
	d  atomicio.Dir
}

func (c *crashDir) Sync() error {
	if c.in.tick() {
		return ErrCrash
	}
	return c.d.Sync()
}

func (c *crashDir) Close() error {
	if c.in.tick() {
		c.d.Close()
		return ErrCrash
	}
	return c.d.Close()
}
