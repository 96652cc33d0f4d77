package durable

import (
	"errors"
	"sync"
)

// ErrInjected marks failures produced by a FaultyFile script, so tests
// can tell injected faults from real I/O errors.
var ErrInjected = errors.New("durable: injected fault")

// FaultyFile wraps a journal File with scripted failures: the journal's
// error paths — a failed group-commit fsync, a short write — are
// otherwise unreachable in tests without yanking real disks. The zero
// script passes everything through.
//
// Scripts count down: FailSyncs(2) fails the next two Sync calls then
// recovers; ShortWriteNext() truncates the next write and reports an
// injected error, the way a full disk does.
type FaultyFile struct {
	F File

	mu         sync.Mutex
	failSyncs  int
	shortWrite bool
}

// NewFaultyFile wraps f with a pass-through script.
func NewFaultyFile(f File) *FaultyFile { return &FaultyFile{F: f} }

// InjectFaults interposes a FaultyFile between the journal and its
// backing file and returns it, so a live journal's fsync/write path can
// be scripted mid-run (the chaos harness arms it on a timer). Call
// before concurrent appends begin — the returned handle itself is safe
// to script from any goroutine once flushing is underway.
func (j *Journal) InjectFaults() *FaultyFile {
	j.mu.Lock()
	defer j.mu.Unlock()
	ff := NewFaultyFile(j.f)
	j.f = ff
	return ff
}

// InjectFaults exposes the journal's fault hook at the store level; see
// Journal.InjectFaults.
func (s *Store) InjectFaults() *FaultyFile { return s.journal.InjectFaults() }

// FailSyncs makes the next n Sync calls fail with ErrInjected.
func (f *FaultyFile) FailSyncs(n int) {
	f.mu.Lock()
	f.failSyncs = n
	f.mu.Unlock()
}

// ShortWriteNext makes the next Write deliver only half its payload and
// fail with ErrInjected.
func (f *FaultyFile) ShortWriteNext() {
	f.mu.Lock()
	f.shortWrite = true
	f.mu.Unlock()
}

func (f *FaultyFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	short := f.shortWrite
	f.shortWrite = false
	f.mu.Unlock()
	if short {
		n, err := f.F.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, ErrInjected
	}
	return f.F.Write(p)
}

func (f *FaultyFile) Sync() error {
	f.mu.Lock()
	fail := f.failSyncs > 0
	if fail {
		f.failSyncs--
	}
	f.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return f.F.Sync()
}

func (f *FaultyFile) Seek(offset int64, whence int) (int64, error) {
	return f.F.Seek(offset, whence)
}

func (f *FaultyFile) Truncate(size int64) error { return f.F.Truncate(size) }

func (f *FaultyFile) Close() error { return f.F.Close() }
