package durable

import (
	"errors"
	"io/fs"
	"os"
	"syscall"
)

// fileSystem is every call the package makes to the file system: osFS in
// production. It is an interface so the crash tests can substitute a
// recording in-memory file system that loses what the persistence model
// (see the package doc) lets a power loss take.
type fileSystem interface {
	MkdirAll(dir string, perm fs.FileMode) error
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the names in a directory.
	ReadDir(dir string) ([]string, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory, making the creates, renames and removes
	// made in it durable.
	SyncDir(dir string) error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

// SyncDir takes EINVAL for success: some file systems (and CI sandboxes)
// reject a directory fsync with it although their directory operations
// are already durable. Every other error is returned.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}
