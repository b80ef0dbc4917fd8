package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// Backend is the pluggable storage surface. Names are slash-separated
// relative paths ("objects/ab/abc...", "ledger/000000001", "refs/...").
// Put must be atomic and durable: a reader never observes a partially
// written name, and a completed Put survives a crash. The local
// directory backend is the only implementation today; the interface is
// shaped so an S3-compatible one (conditional put + list-after-write)
// can slot in later.
type Backend interface {
	// Put atomically creates or replaces the named blob.
	Put(name string, data []byte) error
	// Get returns the blob's bytes; a missing name satisfies
	// errors.Is(err, fs.ErrNotExist).
	Get(name string) ([]byte, error)
	// List returns all committed names under prefix, sorted.
	// In-flight temp files are excluded.
	List(prefix string) ([]string, error)
	// Remove deletes the named blob; removing a missing name is an
	// error (callers decide deletion, the backend must not mask a
	// double delete).
	Remove(name string) error
	// Temps lists leftover temp files from crashed writers.
	Temps() ([]string, error)
	// SweepTemps removes leftover temp files and returns their names.
	SweepTemps() ([]string, error)
}

// tmpMarker tags in-flight writes; any name containing it is invisible
// to List and fair game for SweepTemps.
const tmpMarker = ".tmp-"

// DiskFullError is the typed error for an exhausted volume. It wraps
// ENOSPC so errors.Is(err, syscall.ENOSPC) still holds, and it is what
// a campaign must surface instead of retrying a permanently-full disk
// through the dt-backoff ladder.
type DiskFullError struct {
	Path string
	Err  error
}

func (e *DiskFullError) Error() string {
	return fmt.Sprintf("store: disk full writing %s: %v", e.Path, e.Err)
}

func (e *DiskFullError) Unwrap() error { return e.Err }

// CrashError is the injected-crash signal from a FaultPlan: the write
// in progress stopped as if the process had died at that point. Real
// code never produces it; the chaos harness asserts campaigns surface
// it (or its effects) cleanly.
type CrashError struct {
	Point string // fault kind, e.g. "torn-write", "crash-before-rename"
	Path  string
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("store: injected crash (%s) writing %s", e.Point, e.Path)
}

// DirBackend stores blobs under a root directory with the atomic
// temp → fsync → rename → dir-fsync commit path, optionally filtered
// through a seeded FaultPlan for crash-consistency testing.
type DirBackend struct {
	root   string
	faults *FaultPlan
	ops    int // Put counter, matched against FaultPlan ops
}

// NewDirBackend opens (creating if needed) a local directory backend.
func NewDirBackend(root string) (*DirBackend, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating backend root: %w", err)
	}
	return &DirBackend{root: root}, nil
}

// SetFaults installs (or clears, with nil) the seeded fault plan.
// Subsequent Puts count as ops 0,1,2,… for Op matching.
func (b *DirBackend) SetFaults(p *FaultPlan) {
	b.faults = p
	b.ops = 0
}

// checkName rejects names that would escape the root.
func checkName(name string) error {
	if name == "" || strings.HasPrefix(name, "/") || strings.Contains(name, "..") {
		return fmt.Errorf("store: invalid blob name %q", name)
	}
	return nil
}

// wrapENOSPC converts a real out-of-space failure into the typed error.
func wrapENOSPC(path string, err error) error {
	if errors.Is(err, syscall.ENOSPC) {
		return &DiskFullError{Path: path, Err: err}
	}
	return err
}

// Put commits data under name through commitFile. With a fault plan
// installed, each step offers the plan a chance to misbehave the way a
// real disk or a crash would: short write, flipped bit after commit,
// ENOSPC, or death before/after the rename.
func (b *DirBackend) Put(name string, data []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	op := b.ops
	b.ops++
	var f *Fault
	if b.faults != nil {
		f = b.faults.take(op, name)
	}
	path := filepath.Join(b.root, filepath.FromSlash(name))
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return wrapENOSPC(dir, err)
	}
	return commitFile(path, data, 0, f)
}

// commitHook observes commitFile's durability sequence — ("sync-file",
// temp), ("rename", path), ("sync-dir", dir) in order. Test seam only.
var commitHook = func(op, path string) {}

// commitFile is the one durable write path, Put's and
// WriteFileAtomic's: data goes to a temp file in path's directory (so
// the rename cannot cross devices), is fsynced, renamed over path, and
// the directory is fsynced. The rename keeps a crash mid-write from
// leaving a torn file under the final name; the two fsyncs keep a host
// crash right after it from leaving a zero-length (data never flushed)
// or unlinked (entry never flushed) one. perm 0 keeps CreateTemp's
// 0600. A non-nil fault (Put's plan) fires at its step.
func commitFile(path string, data []byte, perm os.FileMode, f *Fault) error {
	dir := filepath.Dir(path)
	if f != nil && f.Kind == FaultENOSPC {
		return &DiskFullError{Path: path, Err: syscall.ENOSPC}
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+tmpMarker+"*")
	if err != nil {
		return wrapENOSPC(dir, err)
	}
	tmpName := tmp.Name()

	if f != nil && f.Kind == FaultTornWrite {
		// A short write then death: part of the payload reaches the
		// temp file, the rename never happens, the orphan stays.
		n := f.Byte
		if n < 0 || n > len(data) {
			n = len(data) / 2
		}
		tmp.Write(data[:n])
		tmp.Close()
		return &CrashError{Point: string(FaultTornWrite), Path: path}
	}

	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return wrapENOSPC(tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return wrapENOSPC(tmpName, err)
	}
	commitHook("sync-file", tmpName)
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return wrapENOSPC(tmpName, err)
	}
	if perm != 0 {
		if err := os.Chmod(tmpName, perm); err != nil {
			os.Remove(tmpName)
			return err
		}
	}

	if f != nil && f.Kind == FaultCrashBeforeRename {
		// Death after the data is durable in the temp but before the
		// commit point: the name never appears, the orphan stays.
		return &CrashError{Point: string(FaultCrashBeforeRename), Path: path}
	}

	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return wrapENOSPC(path, err)
	}
	commitHook("rename", path)

	if f != nil && f.Kind == FaultCrashAfterRename {
		// Death after the commit point but before the directory sync:
		// the blob is present and whole, only the dir-fsync was lost.
		return &CrashError{Point: string(FaultCrashAfterRename), Path: path}
	}

	if err := syncDir(dir); err != nil {
		return err
	}
	commitHook("sync-dir", dir)

	if f != nil && f.Kind == FaultBitFlip {
		// Silent bit rot: the Put succeeds, the media lies later.
		flipBit(path, f.Byte)
	}
	return nil
}

// flipBit XORs one bit of the committed file in place — the injected
// analogue of media decay. Best-effort: rot that fails to happen just
// means the scenario exercised less.
func flipBit(path string, byteOff int) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return
	}
	off := byteOff
	if off < 0 || off >= len(data) {
		off = len(data) / 2
	}
	data[off] ^= 0x40
	os.WriteFile(path, data, 0o644) //yyvet:ignore atomic-artifact fault injection deliberately corrupts in place; atomicity would defeat it
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (b *DirBackend) Get(name string) ([]byte, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(b.root, filepath.FromSlash(name)))
}

func (b *DirBackend) List(prefix string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(b.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(b.root, path)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		if strings.Contains(name, tmpMarker) {
			return nil
		}
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

func (b *DirBackend) Remove(name string) error {
	if err := checkName(name); err != nil {
		return err
	}
	return os.Remove(filepath.Join(b.root, filepath.FromSlash(name)))
}

func (b *DirBackend) Temps() ([]string, error) {
	var out []string
	err := filepath.WalkDir(b.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(b.root, path)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		if strings.Contains(name, tmpMarker) {
			out = append(out, name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

func (b *DirBackend) SweepTemps() ([]string, error) {
	temps, err := b.Temps()
	if err != nil {
		return nil, err
	}
	for _, name := range temps {
		if err := os.Remove(filepath.Join(b.root, filepath.FromSlash(name))); err != nil {
			return nil, err
		}
	}
	return temps, nil
}

// WriteFileAtomic commits a standalone file (postmortem, report,
// corpus JSON) rather than a store blob through the backend's one
// write path, commitFile, with the caller's permissions.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return commitFile(path, data, perm, nil)
}
