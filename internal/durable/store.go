package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Standard file names inside a durable data directory.
const (
	SnapshotFile = "snapshot.json"
	JournalFile  = "journal.wal"
	HistoryFile  = "history.log"
)

// Store combines the snapshot codec and the journal into the checkpoint
// cycle: Open recovers the latest snapshot plus the journal's verified
// tail, Enqueue and Wait journal acknowledged mutations with fresh
// sequence numbers, and Checkpoint appends the new history records,
// atomically writes a new snapshot that counts them, then truncates the
// journal.
type Store struct {
	fsys    fileSystem
	dir     string
	journal *Journal
	history *history

	mu    sync.Mutex
	seq   uint64 // last sequence number assigned
	batch uint64 // the journal batch that record went into

	// What Open found, held until TakeRecovery hands it over.
	snapshot *Snapshot // nil on cold start
	tail     []Op      // verified journal ops with Seq > snapshot.LastSeq
	scanErr  error     // non-fatal corruption note from the journal scan

	// Pre-resolved telemetry handles (nil without SetTelemetry).
	obsCkpts       *telemetry.Counter
	obsCkptSeconds *telemetry.Histogram
	obsCkptBytes   *telemetry.Gauge
	obsCkptHistory *telemetry.Gauge
}

// SetTelemetry registers the store's checkpoint metrics in reg and
// forwards reg to the journal for append/fsync instrumentation. Call
// before serving traffic.
func (s *Store) SetTelemetry(reg *telemetry.Registry) {
	s.obsCkpts = reg.Counter("checkpoints_total")
	s.obsCkptSeconds = reg.Histogram("checkpoint_seconds", nil)
	s.obsCkptBytes = reg.Gauge("checkpoint_bytes")
	s.obsCkptHistory = reg.Gauge("checkpoint_history_records")
	s.journal.SetTelemetry(reg)
}

// Open prepares dir (creating it if needed), loads the latest snapshot
// and the history records it stands on, scans the journal's verified
// prefix, and opens journal and history for appending. A torn or corrupt
// journal is not fatal: the verified prefix is kept, whatever follows it
// is cut off the file, and ScanWarning reports corruption. History past
// the snapshot's count is cut the same way; history short of it is fatal.
// The temp file of a checkpoint that died mid-write is removed, and the
// directory is fsynced once all of that is done, so the names of a
// journal and a history just created are durable before anything is
// acknowledged through them.
func Open(dir string) (*Store, error) { return open(osFS{}, dir) }

func open(fsys fileSystem, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating data dir: %w", err)
	}
	path := filepath.Join(dir, SnapshotFile)
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: listing data dir: %w", err)
	}
	// A checkpoint that died mid-write left its temp file behind: tmp, or
	// tmp and a random suffix when an earlier version wrote it.
	tmp := filepath.Base(tempPath(path))
	for _, name := range names {
		if strings.HasPrefix(name, tmp) {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("durable: removing a dead checkpoint's temp file: %w", err)
			}
		}
	}
	var snap *Snapshot
	raw, err := fsys.ReadFile(path)
	switch {
	case err == nil:
		if snap, err = DecodeSnapshot(raw); err != nil {
			return nil, err
		}
	case !errors.Is(err, fs.ErrNotExist): // a missing snapshot is a cold start
		return nil, fmt.Errorf("durable: reading snapshot: %w", err)
	}

	seq, covered := uint64(0), 0
	if snap != nil {
		seq, covered = snap.LastSeq, snap.HistoryRecords
	}
	hist, ledger, err := recoverHistory(fsys, filepath.Join(dir, HistoryFile), covered)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		snap.State.Quota.Ledger = ledger
	}
	// Keep only ops past the snapshot horizon; a checkpoint that crashed
	// between snapshot write and journal truncate leaves covered ops
	// behind, which replay must skip.
	var tail []Op
	j, scanErr, err := recoverJournal(fsys, filepath.Join(dir, JournalFile), func(op Op) {
		if snap == nil || op.Seq > snap.LastSeq {
			tail = append(tail, op)
			seq = max(seq, op.Seq)
		}
	})
	if err != nil {
		hist.f.Close()
		return nil, err
	}
	if err := fsys.SyncDir(dir); err != nil {
		hist.f.Close()
		j.Close()
		return nil, fmt.Errorf("durable: syncing data dir: %w", err)
	}
	return &Store{
		fsys:     fsys,
		dir:      dir,
		journal:  j,
		history:  hist,
		seq:      seq,
		snapshot: snap,
		tail:     tail,
		scanErr:  scanErr,
	}, nil
}

// Recovery returns the snapshot (nil on a cold start) and the verified
// journal tail found at Open, until TakeRecovery has handed them over.
func (s *Store) Recovery() (*Snapshot, []Op) { return s.snapshot, s.tail }

// TakeRecovery is Recovery for the caller that applies what was found:
// the store lets go of both, so that a recovered process does not hold
// its start-up state — a second copy of everything — for the rest of its
// life.
func (s *Store) TakeRecovery() (*Snapshot, []Op) {
	snap, tail := s.snapshot, s.tail
	s.snapshot, s.tail = nil, nil
	return snap, tail
}

// ScanWarning reports non-fatal corruption detected while scanning the
// journal at Open (nil if the journal was clean).
func (s *Store) ScanWarning() error { return s.scanErr }

// Enqueue journals one acknowledged mutation: it assigns the next
// sequence number and queues the record under one lock, so journal order
// is sequence order, and returns the sequence and the batch that Wait
// then makes durable. requestID is the call's idempotency key ("" for
// unstamped calls). Concurrent callers that wait share fsyncs.
func (s *Store) Enqueue(at time.Time, user, service, method, requestID string, args any) (seq, batch uint64, err error) {
	var raw json.RawMessage
	if args != nil {
		b, err := json.Marshal(args)
		if err != nil {
			return 0, 0, fmt.Errorf("durable: encoding args for %s.%s: %w", service, method, err)
		}
		raw = b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	op := Op{Seq: s.seq + 1, Time: at.UTC(), User: user, Service: service, Method: method, Args: raw, RequestID: requestID}
	payload, err := encodeOp(op)
	if err != nil {
		return 0, 0, err
	}
	if batch, err = s.journal.enqueue(payload); err != nil {
		return 0, 0, err
	}
	s.seq, s.batch = op.Seq, batch
	return op.Seq, batch, nil
}

// Enqueued returns the batch of the last record enqueued: waiting on it
// waits for every record enqueued so far.
func (s *Store) Enqueued() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batch
}

// Wait blocks until batch is written and fsynced, flushing it if no other
// waiter is, and returns the journal's sticky error, if any: a failed
// flush fails every later wait until the next checkpoint.
func (s *Store) Wait(batch uint64) error { return s.journal.waitDurable(batch) }

// Append is Enqueue, then Wait: it returns the record's sequence once the
// record is durable.
func (s *Store) Append(at time.Time, user, service, method, requestID string, args any) (uint64, error) {
	seq, batch, err := s.Enqueue(at, user, service, method, requestID, args)
	if err != nil {
		return 0, err
	}
	return seq, s.Wait(batch)
}

// Checkpoint streams a snapshot of the state produce emits (stamped with
// the current version and sequence horizon) into place atomically, then
// truncates the journal. produce is told how many ledger entries the
// history segment already holds and emits the ledger from there on: those
// entries are appended to the segment and fsynced before the snapshot that
// counts them is renamed in, so a checkpoint writes live state plus what
// history gained, never history again.
//
// Records already enqueued are flushed first, so no flush races the
// truncation, and Enqueue waits for the checkpoint to finish. The caller
// must not let produce see a mutation whose record is not yet enqueued:
// core holds its mutation lock across both.
func (s *Store) Checkpoint(simTime time.Time, produce func(ledgerFrom int, emit Emit) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A failed flush does not fail the checkpoint: the snapshot holds what
	// the lost batch held, and the truncation clears the sticky error.
	_ = s.journal.waitDurable(s.batch)
	var t0 time.Time
	if s.obsCkpts != nil {
		t0 = time.Now() //lint:walltime telemetry: real checkpoint latency for operator metrics, never read back into store state
	}
	heldRecords, heldSize := s.history.records, s.history.size
	size, err := writeAtomic(s.fsys, filepath.Join(s.dir, SnapshotFile), func(w io.Writer) error {
		return writeSnapshot(w, s.seq, simTime, func(emit Emit) error {
			return produce(s.history.records, emit)
		}, s.history.append)
	})
	if err != nil {
		return err
	}
	if err := s.journal.Truncate(); err != nil {
		return err
	}
	if s.obsCkpts != nil {
		s.obsCkpts.Inc()
		s.obsCkptSeconds.Observe(time.Since(t0).Seconds()) //lint:walltime telemetry: real checkpoint latency for operator metrics, never read back into store state
		s.obsCkptBytes.Set(float64(size + s.history.size - heldSize))
		s.obsCkptHistory.Set(float64(s.history.records - heldRecords))
	}
	return nil
}

// Close flushes and closes the journal, and closes the history segment.
func (s *Store) Close() error {
	s.history.f.Close() // nothing to lose: the checkpoint that appended a record fsynced it
	return s.journal.Close()
}
