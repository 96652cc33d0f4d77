package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/pkg/gae"
)

// TestProducerCoversEveryStateField: the deployment's producer emits
// every field of durable.State, in declaration order, exactly once. A
// field added to State and forgotten in emitStateLocked fails here (and
// at the first Checkpoint) instead of recovering as zero.
func TestProducerCoversEveryStateField(t *testing.T) {
	var want []string
	st := reflect.TypeOf(durable.State{})
	for i := 0; i < st.NumField(); i++ {
		name, _, _ := strings.Cut(st.Field(i).Tag.Get("json"), ",")
		want = append(want, name)
	}
	g := New(durableConfig())
	var got []string
	g.persistMu.Lock()
	err := g.emitStateLocked(func(field string, value any) {
		if i := len(got); i < st.NumField() && reflect.TypeOf(value) != st.Field(i).Type {
			t.Errorf("section %d (%q) emitted as %T, want %v", i, field, value, st.Field(i).Type)
		}
		got = append(got, field)
	})
	g.persistMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("producer emitted %v\nState's fields are  %v", got, want)
	}
}

// TestLegacyIndentedSnapshotRestores: testdata/snapshot_v1_indented.json
// was written by the SetIndent encoder this repository used before
// snapshots were streamed compact (same SnapshotVersion). It must still
// load, restore, and capture back to the state it holds.
func TestLegacyIndentedSnapshotRestores(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1_indented.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("\n    \"pools\": [\n")) {
		t.Fatal("the fixture is not the indented form any more")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, durable.SnapshotFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, _ := s.Recovery()
	if snap == nil || snap.LastSeq != 6 {
		t.Fatalf("fixture loaded as %+v, want a snapshot at seq 6", snap)
	}
	want, err := durable.EncodeState(&snap.State)
	if err != nil {
		t.Fatal(err)
	}
	g := New(durableConfig())
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	if got := encodeState(t, g); !bytes.Equal(want, got) {
		diffLines(t, want, got)
	}
	// And the next checkpoint rewrites it compact, one section per line.
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	compact, err := os.ReadFile(filepath.Join(dir, durable.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(compact, []byte("\n")); lines != 10 || len(compact) >= len(raw)*2/3 {
		t.Fatalf("re-checkpointed fixture is %d bytes on %d lines (indented: %d bytes), want 9 sections and a closing line", len(compact), lines, len(raw))
	}
	again, err := durable.DecodeSnapshot(compact)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := durable.EncodeState(&again.State); err != nil || !bytes.Equal(want, got) {
		t.Fatalf("the compact rewrite holds a different state (err %v)", err)
	}
}

// TestCheckpointAllocCeiling bounds what a checkpoint allocates against
// what it writes: at most 8 bytes per byte of snapshot on a first, cold
// checkpoint (4.5 measured, 2.1 MB for this state; capturing a whole
// State and then encoding it, indented, as one document took 7.5 MB, 8.9
// per byte of a file twice the size). The state is sized so that the
// ledger and the plans — sections of thousands of entries — dominate.
func TestCheckpointAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ctx := context.Background()
	g := New(durableConfig())
	alice, root := g.Client("alice"), g.Client("root")
	if err := root.Grant(ctx, "alice", 1e6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := root.ChargeUsage(ctx, gae.ChargeRequest{User: "alice", Site: "siteA", CPUSeconds: 1, Note: "imported"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("p%03d", i)
		if _, err := alice.Submit(ctx, specOf(name, 600)); err != nil {
			t.Fatal(err)
		}
		if err := alice.Kill(ctx, name, "main"); err != nil {
			t.Fatal(err)
		}
	}
	// The store is attached only now: the set-up has no need of 2,401
	// fsyncs, and a checkpoint reads the deployment, not the journal.
	dir := t.TempDir()
	s, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	st, err := g.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quota.Ledger) < 2000 || len(st.Plans) < 200 {
		t.Fatalf("state holds %d ledger entries and %d plans, want at least 2000 and 200", len(st.Quota.Ledger), len(st.Plans))
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	fi, err := os.Stat(filepath.Join(dir, durable.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(fi.Size())
	t.Logf("checkpoint allocated %d bytes to write %d: %.1fx", m1.TotalAlloc-m0.TotalAlloc, fi.Size(), ratio)
	if ratio > 8 {
		t.Errorf("checkpoint allocated %.1f bytes per byte written, ceiling 8", ratio)
	}
}
