package persist

// The filesystem seam. Every durability-bearing writer in the tree — the
// tree log (its appends and its commits), the sharded-module manifest and
// the FBMX collection writer — performs its I/O through the FS interface
// instead of calling the os package directly. Production code passes OSFS
// (or nil, which means OSFS); the fault-injection plane
// (internal/faultfs) substitutes a scripted implementation so tests can
// fail the Nth fsync, tear a write in half, return ENOSPC, or simulate a
// kill at any durability-relevant operation and then assert that
// recovery from the resulting on-disk state loses nothing that was
// acknowledged.
//
// The interface is deliberately the subset of the os package those
// writers actually use. *os.File satisfies File directly, so OSFS is a
// trivial forwarding shim.

import (
	"io"
	"os"
)

// File is the open-file surface the persistence layer needs: sequential
// and positioned writes, reads for replay, truncation for WAL rollback,
// and fsync. *os.File implements it.
type File interface {
	io.Reader
	io.Writer
	io.WriterAt
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// FS is the filesystem surface the persistence layer needs. All paths
// are interpreted exactly as the os package would.
type FS interface {
	// OpenFile is os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename is os.Rename — the commit point of every atomic write.
	Rename(oldpath, newpath string) error
	// Remove is os.Remove (temp-file cleanup after a failed write).
	Remove(name string) error
	// MkdirAll is os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// Stat is os.Stat.
	Stat(name string) (os.FileInfo, error)
	// ReadFile is os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// SyncDir fsyncs a directory, making creations and renames inside it
	// durable.
	SyncDir(dir string) error
}

// OSFS is the production FS: direct passthrough to the os package.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}

// OrOS returns fs, or OSFS when fs is nil — the default-filling idiom of
// every entry point that takes an optional FS.
func OrOS(fs FS) FS {
	if fs == nil {
		return OSFS
	}
	return fs
}

// CreateFile opens name for writing through fs, truncating any existing
// file — the os.Create idiom.
func CreateFile(fs FS, name string) (File, error) {
	return OrOS(fs).OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// OpenRead opens name read-only through fs — the os.Open idiom.
func OpenRead(fs FS, name string) (File, error) {
	return OrOS(fs).OpenFile(name, os.O_RDONLY, 0)
}
