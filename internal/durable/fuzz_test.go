package durable

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// FuzzJournalReplay feeds arbitrary bytes to the journal scanner and
// checks the recovery contract: never panic, never return unverified
// data. When the input is a corrupted copy of a valid journal, the result
// must be a prefix of the original op stream (possibly with a typed
// error) — corruption may shorten history but never silently diverge it.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a real three-record journal.
	epoch := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	var valid []byte
	var validOps []Op
	for i := uint64(1); i <= 3; i++ {
		op := Op{Seq: i, Time: epoch.Add(time.Duration(i) * time.Second), User: "alice", Service: "state", Method: "set"}
		validOps = append(validOps, op)
		payload, err := encodeOp(op)
		if err != nil {
			f.Fatal(err)
		}
		valid = appendFrame(valid, payload)
	}

	f.Add(valid, -1, byte(0))
	f.Add(valid, 0, byte(0xFF))
	f.Add(valid, len(valid)/2, byte(0x01))
	f.Add([]byte{}, -1, byte(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, -1, byte(0))
	// What appending behind a torn record leaves on disk: one whole record,
	// half of the second, then whole records where the second's payload
	// should be (TestTornTailThenAppendKeepsAckedOps).
	third := len(valid) / 3
	f.Add(append(append([]byte(nil), valid[:third+third/2]...), valid[third:]...), -1, byte(0))

	f.Fuzz(func(t *testing.T, data []byte, flipAt int, flipWith byte) {
		input := append([]byte(nil), data...)
		if flipAt >= 0 && flipAt < len(input) {
			input[flipAt] ^= flipWith
		}

		var ops []Op
		verified, err := scanOps(bytes.NewReader(input), func(op Op) { ops = append(ops, op) })
		// Contract 0: the verified length Open cuts the file to is itself a
		// clean journal of exactly the ops returned — cutting loses nothing
		// verified and leaves nothing unverified behind.
		if verified < 0 || verified > int64(len(input)) {
			t.Fatalf("verified length %d of a %d-byte input", verified, len(input))
		}
		again, aerr := ScanJournalOps(bytes.NewReader(input[:verified]))
		if aerr != nil || len(again) != len(ops) {
			t.Fatalf("verified prefix rescans as %d ops, err %v; the scan returned %d ops, err %v", len(again), aerr, len(ops), err)
		}
		// Contract 1: the scan itself already proved it doesn't panic by
		// returning. Contract 2: any returned op decodes from bytes that
		// passed a CRC — spot-check internal consistency.
		var lastSeq uint64
		for i, op := range ops {
			if i > 0 && op.Seq <= lastSeq {
				t.Fatalf("scan returned non-increasing seqs despite err=%v", err)
			}
			lastSeq = op.Seq
		}

		// Contract 3: if the input is a mutation of our valid journal, the
		// result must be a prefix of the original stream or a typed error.
		if bytes.Equal(input, valid) {
			if err != nil || len(ops) != len(validOps) {
				t.Fatalf("valid journal misread: %d ops, err=%v", len(ops), err)
			}
			return
		}
		if flipAt >= 0 && flipAt < len(data) && bytes.Equal(data, valid) && flipWith != 0 {
			// A true single-byte corruption of the valid journal: every
			// returned op must match the original prefix exactly.
			for i, op := range ops {
				if i >= len(validOps) {
					break
				}
				want := validOps[i]
				if op.Seq != want.Seq && err == nil {
					t.Fatalf("silent divergence at op %d: got seq %d want %d", i, op.Seq, want.Seq)
				}
			}
		}
	})
}

// FuzzHistoryReplay feeds arbitrary bytes, and corrupted copies of a valid
// segment, to the history scanner under every record limit a snapshot
// could name. The contract is the journal's: never panic; return only
// records that passed their CRC, so a corruption of a valid segment yields
// a prefix of what was written; and the verified length — what Open cuts
// the file to — rescans clean to the same records.
func FuzzHistoryReplay(f *testing.F) {
	epoch := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	var valid []byte
	var validLedger []QuotaCharge
	for i := 0; i < 3; i++ {
		c := QuotaCharge{Time: epoch.Add(time.Duration(i) * time.Second), User: "alice", Site: "siteA", CPUSeconds: float64(i), Credits: 0.5, Note: "n"}
		validLedger = append(validLedger, c)
		payload, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		valid = appendFrame(valid, payload)
	}
	third := len(valid) / 3

	f.Add(valid, -1, byte(0), 3)
	f.Add(valid, -1, byte(0), 2)
	f.Add(valid, -1, byte(0), 0)
	f.Add(valid, 0, byte(0xFF), 3)
	f.Add(valid, len(valid)/2, byte(0x01), 3)
	f.Add(valid[:third+third/2], -1, byte(0), 3)
	f.Add([]byte{}, -1, byte(0), 1)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, -1, byte(0), 1)
	f.Add(appendFrame(nil, []byte(`{"time":"not a time"}`)), -1, byte(0), 1)

	f.Fuzz(func(t *testing.T, data []byte, flipAt int, flipWith byte, limit int) {
		input := append([]byte(nil), data...)
		if flipAt >= 0 && flipAt < len(input) {
			input[flipAt] ^= flipWith
		}
		ledger, verified, err := scanHistory(bytes.NewReader(input), limit)
		if verified < 0 || verified > int64(len(input)) {
			t.Fatalf("verified length %d of a %d-byte input", verified, len(input))
		}
		if limit >= 0 && len(ledger) > limit {
			t.Fatalf("%d records returned under a limit of %d", len(ledger), limit)
		}
		if len(ledger) == limit && err != nil {
			t.Fatalf("the limit was reached and the scan still failed: %v", err)
		}
		again, size, aerr := scanHistory(bytes.NewReader(input[:verified]), len(ledger))
		if aerr != nil || size != verified || len(again) != len(ledger) || (len(ledger) > 0 && !reflect.DeepEqual(again, ledger)) {
			t.Fatalf("verified prefix rescans as %d records over %d of %d bytes, err %v; the scan returned %d, err %v", len(again), size, verified, aerr, len(ledger), err)
		}
		if bytes.Equal(data, valid) {
			if len(ledger) > len(validLedger) || (len(ledger) > 0 && !reflect.DeepEqual(ledger, validLedger[:len(ledger)])) {
				t.Fatalf("a corruption of the valid segment diverged from it: %+v (err %v)", ledger, err)
			}
			if bytes.Equal(input, valid) && limit >= len(validLedger) && (err != nil || len(ledger) != len(validLedger)) {
				t.Fatalf("valid segment misread: %d records, err %v", len(ledger), err)
			}
		}
	})
}
