package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func chargeN(i int) QuotaCharge {
	return QuotaCharge{
		Time: storeEpoch.Add(time.Duration(i) * time.Second), User: "alice", Site: "siteA",
		CPUSeconds: float64(i + 1), MB: 2, Credits: float64(i+1) * 0.1, TransferCredits: 0.02, Note: "a <note> & more",
	}
}

func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCheckpointAppendsHistoryDelta: the ledger leaves snapshot.json. A
// checkpoint appends the entries the history segment lacks — the producer
// is asked for exactly those — and never rewrites the ones it holds; the
// snapshot counts what it stands on; checkpoint_bytes is snapshot plus
// appended history; and Open hands back the whole ledger.
func TestCheckpointAppendsHistoryDelta(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.SetTelemetry(reg)
	st := State{Quota: QuotaState{Balances: []QuotaBalance{{User: "alice", Credits: 10}}}}
	var asked []int
	checkpoint := func() {
		t.Helper()
		err := s.Checkpoint(storeEpoch, func(ledgerFrom int, emit Emit) error {
			asked = append(asked, ledgerFrom)
			return checkpointOf(&st)(ledgerFrom, emit)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	gauge := func(name string) int {
		t.Helper()
		v, ok := reg.Snapshot().Value(name, "")
		if !ok {
			t.Fatalf("no %s gauge", name)
		}
		return int(v)
	}

	st.Quota.Ledger = []QuotaCharge{chargeN(0), chargeN(1)}
	checkpoint()
	first := readFile(t, dir, HistoryFile)
	if got := gauge("checkpoint_bytes"); got != len(readFile(t, dir, SnapshotFile))+len(first) {
		t.Fatalf("checkpoint_bytes = %d, want snapshot %d + history %d", got, len(readFile(t, dir, SnapshotFile)), len(first))
	}
	for i := 2; i < 5; i++ {
		st.Quota.Ledger = append(st.Quota.Ledger, chargeN(i))
	}
	checkpoint()
	checkpoint() // nothing billed since: nothing appended
	if !reflect.DeepEqual(asked, []int{0, 2, 5}) {
		t.Fatalf("the producer was asked for the ledger from %v, want [0 2 5]", asked)
	}
	snap, hist := readFile(t, dir, SnapshotFile), readFile(t, dir, HistoryFile)
	if bytes.Contains(snap, []byte("ledger")) || !bytes.Contains(snap, []byte(`"history_records":5}`)) {
		t.Fatalf("snapshot.json should count 5 history records and hold no ledger:\n%s", snap)
	}
	if !bytes.HasPrefix(hist, first) {
		t.Fatal("the second checkpoint rewrote records the first had appended")
	}
	if ledger, size, err := scanHistory(bytes.NewReader(hist), 1<<30); err != nil || size != int64(len(hist)) || !reflect.DeepEqual(ledger, st.Quota.Ledger) {
		t.Fatalf("history.log scans as %d records over %d of %d bytes, err %v", len(ledger), size, len(hist), err)
	}
	if got := gauge("checkpoint_bytes"); got != len(snap) {
		t.Fatalf("checkpoint_bytes = %d after an empty delta, want the snapshot's %d", got, len(snap))
	}
	if got := gauge("checkpoint_history_records"); got != 0 {
		t.Fatalf("checkpoint_history_records = %d after an empty delta", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Records no snapshot counts — what a crash between a checkpoint's
	// append and its rename leaves, torn or whole — are cut at Open.
	extra := appendFrame(append([]byte(nil), hist...), []byte(`{"user":"mallory"}`))
	for _, tail := range [][]byte{extra, extra[:len(extra)-3]} {
		if err := os.WriteFile(filepath.Join(dir, HistoryFile), tail, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := s.Recovery()
		if got.HistoryRecords != 5 || !reflect.DeepEqual(got.State.Quota.Ledger, st.Quota.Ledger) {
			t.Fatalf("recovered %d history records, ledger %+v", got.HistoryRecords, got.State.Quota.Ledger)
		}
		if !bytes.Equal(readFile(t, dir, HistoryFile), hist) {
			t.Fatal("Open left uncounted records in history.log")
		}
		s.Close()
	}
}

// TestHistoryShortOfSnapshotIsAnError: a snapshot that counts more records
// than the segment verifies cannot be served — the missing entries exist
// nowhere else — and Open says so instead of cutting the ledger short. The
// file is left as found.
func TestHistoryShortOfSnapshotIsAnError(t *testing.T) {
	seed := filepath.Join(t.TempDir(), "seed")
	s, err := Open(seed)
	if err != nil {
		t.Fatal(err)
	}
	st := State{Quota: QuotaState{Ledger: []QuotaCharge{chargeN(0), chargeN(1), chargeN(2)}}}
	if err := s.Checkpoint(storeEpoch, checkpointOf(&st)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap, hist := readFile(t, seed, SnapshotFile), readFile(t, seed, HistoryFile)
	flipped := append([]byte(nil), hist...)
	flipped[len(hist)/2] ^= 0x40
	for name, damaged := range map[string][]byte{
		"a record missing":  hist[:len(hist)/3*2],
		"a record torn":     hist[:len(hist)-5],
		"a record damaged":  flipped,
		"the segment empty": nil,
	} {
		dir := filepath.Join(t.TempDir(), "data")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, SnapshotFile), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, HistoryFile), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "counts 3 history records") {
			t.Errorf("%s: Open = %v, want ErrCorrupt naming the 3 records the snapshot counts", name, err)
		}
		if !bytes.Equal(readFile(t, dir, HistoryFile), damaged) {
			t.Errorf("%s: the refused Open changed history.log", name)
		}
	}
}
