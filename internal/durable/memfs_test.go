package durable

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// ErrInjected is the error of every fault a test scripts on a MemFS.
var ErrInjected = errors.New("durable: injected fault")

// shortWriteNext is a MemFS fault script: the next write lands half its
// data and fails.
func shortWriteNext() func(op, name string, n int) (int, error) {
	armed := true
	return func(op, _ string, n int) (int, error) {
		if op == "write" && armed {
			armed = false
			return n / 2, ErrInjected
		}
		return n, nil
	}
}

// MemFS is a recording in-memory file system: the tests' stand-in for
// osFS, holding the files of one directory. It serves every call from
// memory, like a page cache never written back, and records each call that
// changes something, so that CrashStates can list what a power loss after
// any prefix of those calls leaves on disk. Its persistence model is the
// package doc's:
//
//   - a write or truncate is durable only after its file's fsync: those
//     made since survive as a prefix, whose last write may survive cut at
//     any 512-byte boundary of the file;
//   - a create, rename or remove is durable only after the directory's
//     fsync: those made since survive as a prefix;
//   - a failed fsync records nothing, so it makes nothing durable.
//
// The directory itself is given: MkdirAll records nothing, as creating the
// data directory is the operator's job. Fail scripts faults.
type MemFS struct {
	// Fail, when set, is asked before each write, truncate and fsync — op
	// is "write", "truncate" or "sync", name the base name of the file (or
	// of the directory, for a directory fsync), n a write's length — and a
	// non-nil error fails the call. A failing write first lands the first
	// bytes of its data, as many as Fail returns, the way a full disk does.
	Fail func(op, name string, n int) (int, error)

	mu     sync.Mutex
	names  map[string]*memInode // the namespace the process sees
	base   map[string]*memInode // the durable namespace before the first call, and its contents
	calls  []memCall
	inodes int
}

type memInode struct {
	id   int
	data []byte
}

// memCall is one recorded call: a create, rename, remove or directory
// fsync of names, or a write, truncate or fsync of inode ino.
type memCall struct {
	op       string
	name, to string
	ino      int
	off      int64
	data     []byte // a write's bytes
	size     int64  // a truncate's length
}

// NewMemFS returns a MemFS whose directory dir durably holds files (base
// name to content).
func NewMemFS(dir string, files map[string][]byte) *MemFS {
	m := &MemFS{names: map[string]*memInode{}, base: map[string]*memInode{}}
	for name, raw := range files {
		ino := m.inode()
		ino.data = slices.Clone(raw)
		path := filepath.Join(dir, name)
		m.names[path] = ino
		m.base[path] = &memInode{id: ino.id, data: ino.data}
	}
	return m
}

func (m *MemFS) inode() *memInode {
	m.inodes++
	return &memInode{id: m.inodes}
}

func (m *MemFS) fail(op, name string, n int) (int, error) {
	if m.Fail == nil {
		return n, nil
	}
	kept, err := m.Fail(op, filepath.Base(name), n)
	if err == nil {
		return n, nil
	}
	return min(max(kept, 0), n), err
}

func (m *MemFS) MkdirAll(string, fs.FileMode) error { return nil }

func (m *MemFS) OpenFile(name string, flag int, _ fs.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.names[name]
	switch {
	case ino == nil && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case ino == nil:
		ino = m.inode()
		m.names[name] = ino
		m.calls = append(m.calls, memCall{op: "create", name: name, ino: ino.id})
	case flag&os.O_TRUNC != 0:
		ino.data = nil
		m.calls = append(m.calls, memCall{op: "truncate", ino: ino.id})
	}
	return &memFile{m: m, ino: ino, name: name, append: flag&os.O_APPEND != 0}, nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.names[name]
	if ino == nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return slices.Clone(ino.data), nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for path := range m.names {
		if filepath.Dir(path) == dir {
			names = append(names, filepath.Base(path))
		}
	}
	slices.Sort(names)
	return names, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.names[oldpath]
	if ino == nil {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	m.names[newpath] = ino
	delete(m.names, oldpath)
	m.calls = append(m.calls, memCall{op: "rename", name: oldpath, to: newpath})
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.names[name] == nil {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.names, name)
	m.calls = append(m.calls, memCall{op: "remove", name: name})
	return nil
}

func (m *MemFS) SyncDir(dir string) error {
	if _, err := m.fail("sync", dir, 0); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls = append(m.calls, memCall{op: "syncdir"})
	return nil
}

// Calls counts the recorded calls: the crash points are 0 through Calls.
func (m *MemFS) Calls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.calls)
}

// Files returns what the running process sees in dir: base name to
// content, a process crash's disk.
func (m *MemFS) Files(dir string) map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	files := map[string][]byte{}
	for path, ino := range m.names {
		if filepath.Dir(path) == dir {
			files[filepath.Base(path)] = slices.Clone(ino.data)
		}
	}
	return files
}

// CrashStates hands visit, for each crash point from through Calls, every
// state of dir the persistence model allows after that many calls: base
// name to content. A state may repeat; visit must not modify it.
func (m *MemFS) CrashStates(dir string, from int, visit func(point int, files map[string][]byte)) {
	m.mu.Lock()
	calls := m.calls
	m.mu.Unlock()
	d := diskModel{synced: map[int][]byte{}, pending: map[int][]memCall{}, durable: map[string]int{}}
	for path, ino := range m.base {
		d.durable[path] = ino.id
		d.synced[ino.id] = ino.data
	}
	for point := 0; point <= len(calls); point++ {
		if point >= from {
			d.states(dir, func(files map[string][]byte) { visit(point, files) })
		}
		if point < len(calls) {
			d.apply(calls[point])
		}
	}
}

// diskModel is what is durable after a prefix of the calls, and what is
// not yet.
type diskModel struct {
	synced    map[int][]byte    // inode content as of its last fsync
	pending   map[int][]memCall // writes and truncates since
	durable   map[string]int    // the namespace as of the last directory fsync
	namespace []memCall         // creates, renames and removes since
}

func (d *diskModel) apply(c memCall) {
	switch c.op {
	case "create", "rename", "remove":
		d.namespace = append(d.namespace, c)
	case "syncdir":
		d.durable = renamed(d.durable, d.namespace)
		d.namespace = nil
	case "write", "truncate":
		d.pending[c.ino] = append(d.pending[c.ino], c)
	case "sync":
		d.synced[c.ino] = replay(d.synced[c.ino], d.pending[c.ino], -1)
		d.pending[c.ino] = nil
	}
}

// renamed applies namespace calls to a copy of names.
func renamed(names map[string]int, calls []memCall) map[string]int {
	out := make(map[string]int, len(names)+1)
	for name, ino := range names {
		out[name] = ino
	}
	for _, c := range calls {
		switch c.op {
		case "create":
			out[c.name] = c.ino
		case "rename":
			out[c.to] = out[c.name]
			delete(out, c.name)
		case "remove":
			delete(out, c.name)
		}
	}
	return out
}

// replay applies calls to a copy of data, the last of them cut to keep
// bytes when keep is not negative.
func replay(data []byte, calls []memCall, keep int) []byte {
	data = slices.Clone(data)
	for i, c := range calls {
		switch c.op {
		case "truncate":
			if c.size <= int64(len(data)) {
				data = data[:c.size]
			} else {
				data = append(data, make([]byte, c.size-int64(len(data)))...)
			}
		case "write":
			w := c.data
			if i == len(calls)-1 && keep >= 0 {
				w = w[:keep]
			}
			if end := int(c.off) + len(w); end > len(data) {
				data = append(data, make([]byte, end-len(data))...)
			}
			copy(data[c.off:], w)
		}
	}
	return data
}

// contents lists what inode ino may hold after a crash.
func (d *diskModel) contents(ino int) [][]byte {
	calls := d.pending[ino]
	out := [][]byte{d.synced[ino]}
	for i, c := range calls {
		if c.op == "write" {
			for b := (c.off/512 + 1) * 512; b < c.off+int64(len(c.data)); b += 512 {
				out = append(out, replay(d.synced[ino], calls[:i+1], int(b-c.off)))
			}
		}
		out = append(out, replay(d.synced[ino], calls[:i+1], -1))
	}
	return out
}

// states hands visit every state of dir: each prefix of the namespace
// calls since the last directory fsync, and each content of each file.
func (d *diskModel) states(dir string, visit func(map[string][]byte)) {
	for n := 0; n <= len(d.namespace); n++ {
		names := renamed(d.durable, d.namespace[:n])
		var paths []string
		for path := range names {
			if filepath.Dir(path) == dir {
				paths = append(paths, path)
			}
		}
		slices.Sort(paths)
		files := map[string][]byte{}
		var each func(i int)
		each = func(i int) {
			if i == len(paths) {
				visit(cloneFiles(files))
				return
			}
			for _, data := range d.contents(names[paths[i]]) {
				files[filepath.Base(paths[i])] = data
				each(i + 1)
			}
		}
		each(0)
	}
}

func cloneFiles(files map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(files))
	for name, data := range files {
		out[name] = data
	}
	return out
}

// memFile is an open MemFS file.
type memFile struct {
	m      *MemFS
	ino    *memInode
	name   string
	off    int64
	append bool
}

func (f *memFile) Read(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	n, err := f.m.fail("write", f.name, len(p))
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.append {
		f.off = int64(len(f.ino.data))
	}
	f.ino.data = replay(f.ino.data, []memCall{{op: "write", off: f.off, data: p[:n]}}, -1)
	f.m.calls = append(f.m.calls, memCall{op: "write", ino: f.ino.id, off: f.off, data: slices.Clone(p[:n])})
	f.off += int64(n)
	return n, err
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(f.ino.data))
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Sync() error {
	if _, err := f.m.fail("sync", f.name, 0); err != nil {
		return err
	}
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.m.calls = append(f.m.calls, memCall{op: "sync", ino: f.ino.id})
	return nil
}

func (f *memFile) Truncate(size int64) error {
	if _, err := f.m.fail("truncate", f.name, 0); err != nil {
		return err
	}
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	c := memCall{op: "truncate", ino: f.ino.id, size: size}
	f.ino.data = replay(f.ino.data, []memCall{c}, -1)
	f.m.calls = append(f.m.calls, c)
	return nil
}

func (f *memFile) Close() error { return nil }
