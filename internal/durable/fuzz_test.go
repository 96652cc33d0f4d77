package durable

import (
	"bytes"
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
