// Package durable is the persistence layer of the GAE reproduction: a
// versioned snapshot codec, an append-only RPC journal (write-ahead log)
// and an append-only history segment, combined by a Store into the classic
// checkpoint cycle — append what history gained, snapshot the live state,
// truncate the journal, append every mutating RPC as it is acknowledged,
// and on restart load the latest snapshot with the history it stands on
// and replay the journal tail.
//
// The paper's GAE exists to "store the state of users' analysis sessions"
// across interactive logins; this package is what lets a gae-server crash
// without losing the farm: Condor queues and machine leases, fair-share
// decayed-usage accounts, the quota ledger, the replica catalog, and the
// per-user analysis-session state all serialize through the Snapshot
// codec, and the RPCs that mutate them are journaled with group-commit
// fsync batching.
//
// The package is deliberately dependency-free: it defines the durable
// data model (State and its sections) and the file formats, while
// internal/core owns the conversion between live services and the model.
//
// # File formats
//
// A snapshot is a single JSON document (Snapshot), compact, one State
// section per line. It is written in one pass — each section is exported,
// encoded and let go before the next, so a checkpoint costs one section
// of memory rather than the state several times over — into a temp file
// that is fsynced and atomically renamed, so a crash can never leave a
// torn snapshot: the previous one survives until the new one is
// complete.
//
// The journal and the history segment are streams of length-prefixed,
// CRC-checked records:
//
//	uvarint payload length | uint32 little-endian CRC-32 (IEEE) | payload
//
// Journal appends are made durable by group commit: concurrent appenders
// batch into a single write+fsync. Store.Enqueue is the one way a record
// reaches the journal: it takes the next sequence number and queues the
// record under one lock, so journal order is sequence order; Store.Wait
// then blocks, outside any lock, until the record's batch is on disk.
// internal/core enqueues under the lock it applies under, so journal
// order is also apply order, and waits after releasing it.
//
// Recovery scans the longest verified prefix and cuts the file to it: an
// incomplete record at the tail (a torn write) goes silently, while a CRC
// mismatch on a complete record reports ErrCorrupt alongside the verified
// prefix — replay never panics, never applies unverified bytes, and new
// records never land behind them.
//
// The history segment holds what is immutable once written — the quota
// ledger, one entry per record — so that a checkpoint costs live state
// plus what changed, not everything that ever happened. A checkpoint
// appends the entries billed since the previous one and fsyncs them, and
// only then renames in a snapshot that records how many history records it
// stands on. Recovery reads exactly that many and cuts the rest: they
// belong to a checkpoint that died between its append and its rename, and
// the journal, not yet truncated, still holds the ops that re-create
// them. A segment that verifies fewer records than the snapshot counts is
// an error, never a shorter ledger.
package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Typed errors surfaced by journal recovery and snapshot loading.
var (
	// ErrCorrupt reports a record whose payload failed its CRC check, or
	// a snapshot that failed structural validation. The verified prefix
	// before the corruption is still returned to the caller.
	ErrCorrupt = errors.New("durable: corrupt record")
	// ErrClosed is returned by appends to a closed journal.
	ErrClosed = errors.New("durable: journal closed")
	// ErrTooLarge rejects records above MaxRecordSize.
	ErrTooLarge = errors.New("durable: record exceeds size limit")
)

// MaxRecordSize bounds a single journal record (16 MiB). Recovery treats
// larger declared lengths as corruption, so a flipped length byte cannot
// force a multi-gigabyte allocation.
const MaxRecordSize = 16 << 20

// Op is one journaled mutating RPC, recorded after the mutation was
// applied and before it is acknowledged. Service and Method name the RPC as it appears
// on the wire ("scheduler"/"submit", "state"/"set", ...); Args is the JSON
// array of the call's positional wire arguments, in wire order, which the
// service layer also owns decoding again at replay.
type Op struct {
	// Seq is the op's journal sequence number, strictly increasing across
	// checkpoints. Recovery applies only ops with Seq greater than the
	// snapshot's LastSeq.
	Seq uint64 `json:"seq"`
	// Time is the simulated time at which the op was applied; replay
	// advances the engine to it before re-applying.
	Time time.Time `json:"time"`
	// User is the acting (authenticated) user the op executed as.
	User    string          `json:"user"`
	Service string          `json:"service"`
	Method  string          `json:"method"`
	Args    json.RawMessage `json:"args,omitempty"`
	// RequestID is the client's idempotency key for the op (empty for
	// unstamped calls). Replay re-records it in the dedup window so a
	// retry arriving after a crash+recovery is still suppressed.
	RequestID string `json:"rid,omitempty"`
}

// encodeOp renders the op as a journal payload.
func encodeOp(op Op) ([]byte, error) {
	b, err := json.Marshal(op)
	if err != nil {
		return nil, fmt.Errorf("durable: encoding op %d: %w", op.Seq, err)
	}
	return b, nil
}

// DecodeOp parses a journal payload back into an Op.
func DecodeOp(payload []byte) (Op, error) {
	var op Op
	if err := json.Unmarshal(payload, &op); err != nil {
		return Op{}, fmt.Errorf("%w: op payload: %v", ErrCorrupt, err)
	}
	return op, nil
}
