package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// history is the append-only segment for state that never changes once it
// is written — today the quota ledger, one QuotaCharge per record, framed
// and checksummed like the journal's. A checkpoint appends the records
// made since the previous one and fsyncs them before the snapshot that
// counts them is renamed into place, so a record is written once and a
// snapshot stands on a prefix of the segment: its HistoryRecords. Records
// past that count belong to a checkpoint that never finished, whose ops
// the journal still holds; Open cuts them off.
type history struct {
	f File
	// The whole, fsynced records the segment holds. A live process keeps
	// the ones a failed checkpoint appended — the ledger entries they hold
	// cannot change — and the next snapshot counts them.
	size    int64
	records int
}

// errHistoryLimit ends a scan at the record count asked for.
var errHistoryLimit = errors.New("durable: history scan limit")

// scanHistory decodes the first limit records of a history segment and
// returns them with their length in bytes. Reaching limit is success
// whatever follows; short of it, the error says why the verified prefix
// ended (nil at a clean or torn end of stream, ErrCorrupt at a damaged
// record). It never panics on arbitrary input.
func scanHistory(r io.Reader, limit int) ([]QuotaCharge, int64, error) {
	var ledger []QuotaCharge
	size, err := scanRecords(r, func(n int, payload []byte) error {
		if n == limit {
			return errHistoryLimit
		}
		var c QuotaCharge
		if err := json.Unmarshal(payload, &c); err != nil {
			return fmt.Errorf("%w: history record %d: %v", ErrCorrupt, n, err)
		}
		ledger = append(ledger, c)
		return nil
	})
	if len(ledger) == limit {
		err = nil
	}
	return ledger, size, err
}

// recoverHistory opens the segment at path for appending and returns the
// covered records the snapshot stands on, cutting whatever follows them —
// the journal's torn-tail rule, applied to a crash between a checkpoint's
// append and its rename. A segment that verifies fewer records than the
// snapshot counts is an error: those records exist nowhere else.
func recoverHistory(path string, covered int) (*history, []QuotaCharge, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: opening history: %w", err)
	}
	ledger, size, err := scanHistory(f, covered)
	if err == nil && len(ledger) < covered {
		err = ErrCorrupt
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("durable: the snapshot counts %d history records, %s verifies %d: %w", covered, path, len(ledger), err)
	}
	if err = f.Truncate(size); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("durable: cutting history to the snapshot's records: %w", err)
	}
	return &history{f: f, size: size, records: covered}, ledger, nil
}

// append writes delta behind the records the segment holds and fsyncs it,
// and returns how many records the snapshot being written then stands on.
// What an append that failed part-way left behind is cut first, as Open
// would cut it.
func (h *history) append(delta []QuotaCharge) (int, error) {
	if len(delta) == 0 {
		return h.records, nil
	}
	if err := h.f.Truncate(h.size); err != nil {
		return 0, fmt.Errorf("durable: cutting history to its whole records: %w", err)
	}
	bw := bufio.NewWriterSize(h.f, 64<<10)
	var rec bytes.Buffer
	var frame []byte
	enc := json.NewEncoder(&rec)
	size := h.size
	for i := range delta {
		rec.Reset()
		if err := enc.Encode(&delta[i]); err != nil {
			return 0, fmt.Errorf("durable: encoding history record: %w", err)
		}
		frame = appendFrame(frame[:0], rec.Bytes())
		if _, err := bw.Write(frame); err != nil {
			return 0, fmt.Errorf("durable: history write: %w", err)
		}
		size += int64(len(frame))
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("durable: history write: %w", err)
	}
	if err := h.f.Sync(); err != nil {
		return 0, fmt.Errorf("durable: history fsync: %w", err)
	}
	h.size = size
	h.records += len(delta)
	return h.records, nil
}
