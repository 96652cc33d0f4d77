package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openFaultyJournal(t *testing.T) (*Journal, *FaultyFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.wal")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff := NewFaultyFile(f)
	return NewJournal(ff), ff, path
}

// TestJournalFsyncFailureFailsWholeBatch pins the group-commit error
// contract: when the flush that would make a batch durable fails, every
// waiter in that batch gets the error — no op in the batch is ever
// acknowledged. The batch is built deterministically by enqueueing all
// payloads before any waiter runs, so one flusher serves all of them.
func TestJournalFsyncFailureFailsWholeBatch(t *testing.T) {
	j, ff, _ := openFaultyJournal(t)
	defer j.Close()
	// Two armed failures: one flush consumes one of them.
	ff.FailSyncs(2)

	const waiters = 5
	gens := make([]uint64, waiters)
	for i := range gens {
		gen, err := j.enqueue([]byte("op"))
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = gen
	}
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i, gen := range gens {
		wg.Add(1)
		go func(i int, gen uint64) {
			defer wg.Done()
			errs[i] = j.waitDurable(gen)
		}(i, gen)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("waiter %d: err = %v, want injected fsync failure", i, err)
		}
	}
	if left := ff.pendingSyncFailures(); left != 1 {
		t.Fatalf("%d syncs, want one shared (failed) flush", 2-left)
	}
	ff.FailSyncs(0)

	// The error is sticky: the journal refuses further appends until the
	// checkpoint cycle truncates it.
	if err := appendRaw(j, []byte("late")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append after failed flush: err = %v, want sticky injected error", err)
	}
	if err := j.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := appendRaw(j, []byte("recovered")); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
}

// TestJournalShortWriteNeverAcks injects a short write (the full-disk
// shape): Append must report the failure, and recovery must treat the
// torn bytes as an unacknowledged tail, not a verified record.
func TestJournalShortWriteNeverAcks(t *testing.T) {
	j, ff, path := openFaultyJournal(t)
	ff.ShortWriteNext()
	if err := appendOp(j, testOp(1, "set")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append: err = %v, want injected short write", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("short write should leave torn bytes to scan past")
	}
	ops, scanErr := ScanJournalOps(bytes.NewReader(raw))
	if scanErr != nil {
		t.Fatalf("torn tail must scan as clean truncation, got %v", scanErr)
	}
	if len(ops) != 0 {
		t.Fatalf("recovered %d records from an unacknowledged write, want 0", len(ops))
	}
}

// TestStoreAppendPropagatesFlushFailure covers the Store wrapper: the
// sequence-assigning Append path must surface the journal's flush error
// to its caller (core acks RPCs only on a nil return).
func TestStoreAppendPropagatesFlushFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Swap the store's journal file for a faulty one.
	ff := NewFaultyFile(s.journal.f)
	s.journal.f = ff
	ff.FailSyncs(1)
	if _, err := s.Append(storeEpoch, "alice", "state", "set", "rid-1", nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("store append: err = %v, want injected fsync failure", err)
	}
}

// pendingSyncFailures reports how many armed Sync failures are left.
func (f *FaultyFile) pendingSyncFailures() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failSyncs
}
