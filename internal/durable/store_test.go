package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var storeEpoch = time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)

func TestStoreColdStart(t *testing.T) {
	s, err := Open(t.TempDir() + "/data")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, tail := s.Recovery()
	if snap != nil || len(tail) != 0 {
		t.Fatalf("cold start should be empty, got snap=%v tail=%v", snap, tail)
	}
	if s.seq != 0 {
		t.Fatalf("seq = %d, want 0", s.seq)
	}
}

func TestStoreCheckpointCycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Append(storeEpoch.Add(time.Duration(i)*time.Second), "alice", "state", "set", "", map[string]string{"k": "v"}); err != nil {
			t.Fatal(err)
		}
	}
	st := State{UserState: map[string]map[string]string{"alice": {"k": "v"}}}
	if err := s.Checkpoint(storeEpoch.Add(5*time.Second), checkpointOf(&st)); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint appends form the replay tail.
	for i := 5; i < 8; i++ {
		if _, err := s.Append(storeEpoch.Add(time.Duration(i)*time.Second), "bob", "state", "set", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, tail := s2.Recovery()
	if snap == nil {
		t.Fatal("no snapshot recovered")
	}
	if snap.LastSeq != 5 {
		t.Fatalf("snapshot LastSeq = %d, want 5", snap.LastSeq)
	}
	if got := snap.State.UserState["alice"]["k"]; got != "v" {
		t.Fatalf("state not preserved: %q", got)
	}
	if len(tail) != 3 {
		t.Fatalf("tail length %d, want 3", len(tail))
	}
	for i, op := range tail {
		if op.Seq != uint64(6+i) || op.User != "bob" {
			t.Fatalf("tail[%d] = %+v", i, op)
		}
	}
	if s2.seq != 8 {
		t.Fatalf("recovered seq = %d, want 8", s2.seq)
	}
}

// TestStoreSkipsCoveredOps simulates a crash between snapshot write and
// journal truncation: ops at or below the snapshot horizon must not be
// offered for replay.
func TestStoreSkipsCoveredOps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Append(storeEpoch, "alice", "state", "set", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Write the snapshot directly (bypassing Checkpoint's truncate) to
	// model the torn checkpoint.
	_, err = writeAtomic(osFS{}, filepath.Join(dir, SnapshotFile), func(w io.Writer) error {
		return writeSnapshot(w, 3, storeEpoch, producerOf(&State{}), countLedger)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, tail := s2.Recovery()
	if len(tail) != 1 || tail[0].Seq != 4 {
		t.Fatalf("tail = %+v, want only seq 4", tail)
	}
}

// TestStoreTruncatesCorruptSuffix verifies that when the journal scan
// stops at corruption, Open drops the unverified bytes so later appends
// extend the verified prefix.
func TestStoreTruncatesCorruptSuffix(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append(storeEpoch, "alice", "state", "set", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, JournalFile)
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF // corrupt the last record's payload
	if err := os.WriteFile(jpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(s2.ScanWarning(), ErrCorrupt) {
		t.Fatalf("want corruption warning, got %v", s2.ScanWarning())
	}
	_, tail := s2.Recovery()
	if len(tail) != 2 {
		t.Fatalf("verified tail = %d ops, want 2", len(tail))
	}
	// New appends continue the sequence after the verified prefix.
	if _, err := s2.Append(storeEpoch, "alice", "state", "set", "", nil); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.ScanWarning() != nil {
		t.Fatalf("journal should be clean after repair: %v", s3.ScanWarning())
	}
	_, tail = s3.Recovery()
	if len(tail) != 3 || tail[2].Seq != 3 {
		t.Fatalf("tail = %+v, want 3 ops ending at seq 3", tail)
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	for _, content := range []string{"one", "two"} {
		n, err := writeAtomic(osFS{}, path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
		if err != nil || n != int64(len(content)) {
			t.Fatalf("writing %q: %d bytes, %v", content, n, err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("got %q", got)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

// TestOpenRemovesDeadCheckpointTemps: a checkpoint killed mid-write
// leaves its temp file behind — under tempPath, or with a random suffix
// when an earlier version wrote it — and Open removes it, and nothing
// else.
func TestOpenRemovesDeadCheckpointTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{".snapshot.json.tmp", ".snapshot.json.tmp-3141592", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"version":`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{HistoryFile, JournalFile, "notes.txt"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("after Open the directory holds %v, want %v", names, want)
	}
}

// TestSnapshotVersionRejected: a loader reads its own version only —
// version 1, whose ledger sat in the document, as much as one from the
// future.
func TestSnapshotVersionRejected(t *testing.T) {
	for _, version := range []int{1, 99} {
		dir := t.TempDir()
		path := filepath.Join(dir, SnapshotFile)
		data, err := json.Marshal(&Snapshot{Version: version, SimTime: storeEpoch})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(data); err == nil {
			t.Fatalf("version %d snapshot should be rejected", version)
		}
		if _, err := Open(dir); err == nil {
			t.Fatalf("Open should refuse a version %d snapshot", version)
		}
	}
}

// reopenTail opens dir on fsys and returns the store with the tail it
// recovered, failing on a scan warning.
func reopenTail(t *testing.T, fsys fileSystem, dir string) (*Store, []Op) {
	t.Helper()
	s, err := open(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	if warn := s.ScanWarning(); warn != nil {
		s.Close()
		t.Fatalf("torn tail reported as corruption: %v", warn)
	}
	_, tail := s.Recovery()
	return s, tail
}

func appendN(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Append(storeEpoch, "alice", "state", "set", "", map[string]string{"k": "v"}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailThenAppendKeepsAckedOps: a record torn by a crash
// mid-append must be cut off the file at the next Open, not merely
// skipped by the scan. Left behind, its length prefix reaches across the
// records appended after it, the following scan reads a checksum
// mismatch, and every op acknowledged since the crash is dropped. Every
// cut offset inside the last record is tried.
func TestTornTailThenAppendKeepsAckedOps(t *testing.T) {
	seedDir := filepath.Join(t.TempDir(), "seed")
	s, err := Open(seedDir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(seedDir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	two := len(full) / 3 * 2 // the three records are the same size
	if ops, err := ScanJournalOps(bytes.NewReader(full[:two])); err != nil || len(ops) != 2 {
		t.Fatalf("seed journal: %d ops in the first %d bytes, err %v", len(ops), two, err)
	}

	for cut := two + 1; cut < len(full); cut++ {
		dir := filepath.Join(t.TempDir(), "data")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		jpath := filepath.Join(dir, JournalFile)
		if err := os.WriteFile(jpath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, tail := reopenTail(t, osFS{}, dir)
		if len(tail) != 2 {
			t.Fatalf("cut %d: %d ops recovered, want the 2 whole records", cut, len(tail))
		}
		if fi, err := os.Stat(jpath); err != nil || fi.Size() != int64(two) {
			t.Fatalf("cut %d: journal is %d bytes after Open, want the verified %d (err %v)", cut, fi.Size(), two, err)
		}
		appendN(t, s, 3)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, tail = reopenTail(t, osFS{}, dir)
		if len(tail) != 5 || tail[4].Seq != 5 {
			t.Fatalf("cut %d: %d ops after the restart, want 2 + the 3 acknowledged since (last seq 5)", cut, len(tail))
		}
		s.Close()
	}
}

// TestShortWriteThenRestartKeepsAckedOps is the same failure by its
// realistic route: a short write on a full disk fails the append (the
// journal turns sticky, the server exits), and the restart must cut the
// half-written record off before it appends.
func TestShortWriteThenRestartKeepsAckedOps(t *testing.T) {
	mem := NewMemFS("data", nil)
	s, err := open(mem, "data")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 2)
	mem.Fail = shortWriteNext()
	if _, err := s.Append(storeEpoch, "alice", "state", "set", "", nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("append over a short write: err = %v, want the injected fault", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, tail := reopenTail(t, mem, "data")
	if len(tail) != 2 {
		t.Fatalf("%d ops recovered, want the 2 acknowledged", len(tail))
	}
	appendN(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, tail = reopenTail(t, mem, "data")
	defer s.Close()
	if len(tail) != 5 || tail[4].Seq != 5 {
		t.Fatalf("%d ops after the second restart, want 5 ending at seq 5: %+v", len(tail), tail)
	}
}

// TestStoreAppendPropagatesFlushFailure covers the Store wrapper: the
// sequence-assigning Append path must surface the journal's flush error
// to its caller (core acks RPCs only on a nil return).
func TestStoreAppendPropagatesFlushFailure(t *testing.T) {
	mem := NewMemFS("data", nil)
	s, err := open(mem, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mem.Fail = func(op, name string, n int) (int, error) {
		if op == "sync" && name == JournalFile {
			return 0, ErrInjected
		}
		return n, nil
	}
	if _, err := s.Append(storeEpoch, "alice", "state", "set", "rid-1", nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("store append: err = %v, want injected fsync failure", err)
	}
}
