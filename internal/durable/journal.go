package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Journal is the append-only RPC log. Records are framed as
//
//	uvarint payload length | uint32 LE CRC-32 (IEEE) | payload
//
// and made durable by group commit: enqueue adds the encoded record to the
// pending batch and waitDurable blocks until a flusher has written and
// fsynced the batch containing it (Store.Enqueue and Store.Wait). Under
// concurrent load many appenders share one fsync; a lone appender
// degenerates to write+fsync with no added latency.
type Journal struct {
	mu       sync.Mutex
	cond     *sync.Cond
	f        File
	pending  []byte // encoded records awaiting the next flush
	pendingN int64  // record count in pending
	flushing bool   // a flusher is in the write+fsync critical section
	queued   uint64 // generation of the batch currently accumulating, from 1
	synced   uint64 // highest generation written and fsynced (or failed)
	err      error  // sticky I/O error; fails all subsequent appends
	closed   bool

	// Pre-resolved telemetry handles (nil without SetTelemetry; nil
	// instruments no-op). The flush metrics are per group-commit batch,
	// which is the unit that actually hits the disk.
	obsAppends      *telemetry.Counter
	obsFlushes      *telemetry.Counter
	obsFsyncSeconds *telemetry.Histogram
	obsBatchBytes   *telemetry.Histogram
	obsBatchRecords *telemetry.Histogram
}

// SetTelemetry registers the journal's metrics in reg: per-record
// appends, per-batch flush counts, write+fsync latency, and batch
// size in bytes and records. Call before concurrent appends begin.
func (j *Journal) SetTelemetry(reg *telemetry.Registry) {
	j.obsAppends = reg.Counter("journal_appends_total")
	j.obsFlushes = reg.Counter("journal_flushes_total")
	j.obsFsyncSeconds = reg.Histogram("journal_fsync_seconds", nil)
	j.obsBatchBytes = reg.Histogram("journal_batch_bytes", telemetry.SizeBuckets)
	j.obsBatchRecords = reg.Histogram("journal_batch_records", telemetry.CountBuckets)
}

// File is the slice of *os.File the package reads and writes a file
// through: what fileSystem.OpenFile returns.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// newJournal wraps the journal file recoverJournal has scanned and cut.
func newJournal(f File) *Journal {
	j := &Journal{f: f, queued: 1}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// appendFrame appends payload to buf, framed.
func appendFrame(buf []byte, payload []byte) []byte {
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:n+4]...)
	return append(buf, payload...)
}

// enqueue frames the payload into the pending batch and returns the batch
// generation the caller must wait on. The split from waitDurable lets the
// caller assign sequence numbers and enqueue under one short critical
// section — journal order then matches sequence order — and wait for the
// fsync outside it, so that appenders still share flushes.
func (j *Journal) enqueue(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if j.err != nil {
		return 0, j.err
	}
	j.pending = appendFrame(j.pending, payload)
	j.pendingN++
	j.obsAppends.Inc()
	return j.queued, nil
}

// waitDurable blocks until batch generation gen is on disk and returns the
// sticky error, if any. The first waiter to observe no active flusher
// becomes the flusher for everything pending: it takes the batch, writes
// and fsyncs it with j.mu released — flushing keeps every other waiter
// from starting a second flush meanwhile — then publishes the outcome.
func (j *Journal) waitDurable(gen uint64) error {
	j.mu.Lock()
	for j.synced < gen && j.err == nil && !j.closed {
		if j.flushing {
			j.cond.Wait()
			continue
		}
		batch, records, flushed := j.pending, j.pendingN, j.queued
		j.pending, j.pendingN = nil, 0
		j.queued++
		j.flushing = true
		j.mu.Unlock()
		err := j.write(batch, records)
		j.mu.Lock()
		j.flushing = false
		if err != nil && j.err == nil {
			j.err = err
		}
		j.synced = flushed
		j.cond.Broadcast()
	}
	err := j.err
	if err == nil && j.synced < gen && j.closed {
		err = ErrClosed
	}
	j.mu.Unlock()
	return err
}

// write writes and fsyncs one batch of records and observes the flush.
// It touches no field j.mu guards, so waitDurable calls it unlocked.
func (j *Journal) write(batch []byte, records int64) error {
	var t0 time.Time
	if j.obsFlushes != nil {
		t0 = time.Now() //lint:walltime telemetry: real fsync latency for operator metrics, never read back into store state
	}
	var err error
	if _, werr := j.f.Write(batch); werr != nil {
		err = fmt.Errorf("durable: journal write: %w", werr)
	} else if serr := j.f.Sync(); serr != nil {
		err = fmt.Errorf("durable: journal fsync: %w", serr)
	}
	if j.obsFlushes != nil {
		j.obsFlushes.Inc()
		j.obsFsyncSeconds.Observe(time.Since(t0).Seconds()) //lint:walltime telemetry: real fsync latency for operator metrics, never read back into store state
		j.obsBatchBytes.Observe(float64(len(batch)))
		j.obsBatchRecords.Observe(float64(records))
	}
	return err
}

// Truncate discards the journal's contents (the checkpoint cycle's
// "snapshot-then-truncate" step) and clears the sticky error. It must not
// race a flush; the Store drains the journal first and holds off appends.
func (j *Journal) Truncate() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: truncating journal: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("durable: rewinding journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("durable: journal fsync: %w", err)
	}
	j.err = nil
	return nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.cond.Broadcast()
	if serr != nil {
		return fmt.Errorf("durable: journal fsync on close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("durable: closing journal: %w", cerr)
	}
	return nil
}

// scanRecords reads framed records from r — the journal's framing, which
// the history segment shares — hands visit each payload of the longest
// verified prefix in order, and returns that prefix's length in bytes. The
// prefix ends
//
//   - at a clean end of stream, or at an incomplete record — a torn write
//     from a crash mid-append — with a nil error;
//   - at a complete record whose declared length or CRC is invalid, with
//     ErrCorrupt: the file was damaged, not merely torn;
//   - before a record visit refuses, with visit's error.
//
// The payload is valid only during the call: every record is verified in
// one reused buffer, so a scan holds what visit keeps, never the file. Any
// other error is r's own. It never panics on arbitrary input.
func scanRecords(r io.Reader, visit func(n int, payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var verified int64
	var rec []byte // CRC + payload of the record at hand
	for n := 0; ; n++ {
		hdr, perr := br.Peek(binary.MaxVarintLen64) // short at the end of the stream
		size, w := binary.Uvarint(hdr)
		if w == 0 && perr != nil {
			if perr == io.EOF {
				return verified, nil // clean end of stream, or a torn length prefix
			}
			return verified, perr
		}
		if w <= 0 {
			return verified, fmt.Errorf("%w: record length overflows", ErrCorrupt)
		}
		if size > MaxRecordSize {
			return verified, fmt.Errorf("%w: record length %d exceeds limit", ErrCorrupt, size)
		}
		br.Discard(w) // cannot fail: the w bytes were just peeked
		rec = slices.Grow(rec[:0], 4+int(size))[:4+size]
		if _, err := io.ReadFull(br, rec); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return verified, nil // torn header or payload
			}
			return verified, err
		}
		if crc32.ChecksumIEEE(rec[4:]) != binary.LittleEndian.Uint32(rec) {
			return verified, fmt.Errorf("%w: checksum mismatch on record %d", ErrCorrupt, n)
		}
		if err := visit(n, rec[4:]); err != nil {
			return verified, err
		}
		verified += int64(w) + int64(len(rec))
	}
}

// scanOps is scanRecords over a journal: each payload must decode as an
// op, in strictly increasing sequence order, or the prefix ends there with
// ErrCorrupt (a checksummed payload that is no op, or ops out of order,
// mean writer and reader disagree or the damage forged a checksum).
// Callers replay the prefix either way and cut the file at the returned
// length; ErrCorrupt only decides whether to warn.
func scanOps(r io.Reader, visit func(Op)) (int64, error) {
	var lastSeq uint64
	return scanRecords(r, func(n int, payload []byte) error {
		op, err := DecodeOp(payload)
		if err != nil {
			return err
		}
		if n > 0 && op.Seq <= lastSeq {
			return fmt.Errorf("%w: op %d sequence %d not after %d", ErrCorrupt, n, op.Seq, lastSeq)
		}
		lastSeq = op.Seq
		visit(op)
		return nil
	})
}

// recoverJournal opens the journal at path for appending after scanning
// what it holds: visit sees each op of the verified prefix, and whatever
// follows the prefix — a torn tail as much as a corrupt suffix — is cut
// off the file, so that new records extend the prefix. Left in place, a
// torn length prefix would swallow the records appended behind it at the
// next scan, and that scan would drop them as corrupt. warn is the scan's
// ErrCorrupt, if any.
func recoverJournal(fsys fileSystem, path string, visit func(Op)) (j *Journal, warn, err error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: opening journal: %w", err)
	}
	verified, warn := scanOps(f, visit)
	if warn != nil && !errors.Is(warn, ErrCorrupt) {
		f.Close()
		return nil, nil, fmt.Errorf("durable: reading journal: %w", warn)
	}
	if err = f.Truncate(verified); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("durable: cutting journal to its verified prefix: %w", err)
	}
	return newJournal(f), warn, nil
}

// ScanJournalOps scans r into the ops of its longest verified prefix; a
// non-nil error says why the prefix ended early (see scanOps).
func ScanJournalOps(r io.Reader) ([]Op, error) {
	var ops []Op
	_, err := scanOps(r, func(op Op) { ops = append(ops, op) })
	return ops, err
}
