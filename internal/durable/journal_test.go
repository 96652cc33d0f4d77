package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testOp(seq uint64, method string) Op {
	return Op{
		Seq:     seq,
		Time:    time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Second),
		User:    "alice",
		Service: "scheduler",
		Method:  method,
		Args:    json.RawMessage(`{"n":` + fmt.Sprint(seq) + `}`),
	}
}

// OpenJournal opens (creating if needed) a journal file for appending and
// takes what it holds on trust; a Store opens its journal through
// recoverJournal.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return NewJournal(f), nil
}

// appendRaw journals one encoded payload the way Store.Append does:
// queued into the pending batch, then waited on until that batch is
// durable.
func appendRaw(j *Journal, payload []byte) error {
	gen, err := j.enqueue(payload)
	if err != nil {
		return err
	}
	return j.waitDurable(gen)
}

// appendOp journals one op through appendRaw.
func appendOp(j *Journal, op Op) error {
	payload, err := encodeOp(op)
	if err != nil {
		return err
	}
	return appendRaw(j, payload)
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if err := appendOp(j, testOp(i, "submit")); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := ScanJournalOps(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(ops) != 10 {
		t.Fatalf("got %d ops, want 10", len(ops))
	}
	for i, op := range ops {
		want := testOp(uint64(i+1), "submit")
		if op.Seq != want.Seq || op.User != want.User || !op.Time.Equal(want.Time) {
			t.Fatalf("op %d mismatch: %+v", i, op)
		}
	}
}

// TestJournalTornTail truncates the file mid-record at every possible
// byte offset within the final record and verifies recovery silently
// returns the records before it — a crash mid-append must never be an
// error, only a shorter history.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for i := uint64(1); i <= 3; i++ {
		if err := appendOp(j, testOp(i, "set")); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, st.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation point strictly inside the third record must yield
	// exactly the first two records with no error.
	for cut := offsets[1] + 1; cut < offsets[2]; cut++ {
		ops, err := ScanJournalOps(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		if len(ops) != 2 {
			t.Fatalf("cut %d: got %d ops, want 2", cut, len(ops))
		}
	}
}

// TestJournalCorruptRecord flips a byte inside a fully-present record and
// verifies the scan reports ErrCorrupt while still returning the verified
// prefix before the damage.
func TestJournalCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var afterFirst int64
	for i := uint64(1); i <= 3; i++ {
		if err := appendOp(j, testOp(i, "set")); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			st, _ := os.Stat(path)
			afterFirst = st.Size()
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the payload of the second record (skip its varint+CRC header
	// by a safe margin: +8 lands inside the JSON payload).
	raw[afterFirst+8] ^= 0xFF

	ops, err := ScanJournalOps(bytes.NewReader(raw))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if len(ops) != 1 || ops[0].Seq != 1 {
		t.Fatalf("verified prefix wrong: %+v", ops)
	}
}

// TestJournalGroupCommit hammers the journal from many goroutines and
// verifies every record survives, in an order consistent with a single
// append stream.
func TestJournalGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 50
	var mu sync.Mutex
	var seq uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				mu.Lock()
				seq++
				payload, err := encodeOp(testOp(seq, "burst"))
				if err != nil {
					mu.Unlock()
					t.Error(err)
					return
				}
				gen, err := j.enqueue(payload)
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				if err := j.waitDurable(gen); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := ScanJournalOps(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(ops) != workers*perWorker {
		t.Fatalf("got %d ops, want %d", len(ops), workers*perWorker)
	}
	for i, op := range ops {
		if op.Seq != uint64(i+1) {
			t.Fatalf("op %d has seq %d", i, op.Seq)
		}
	}
}

func TestJournalOversizeRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := appendRaw(j, make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestJournalAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := appendOp(j, testOp(1, "late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}
