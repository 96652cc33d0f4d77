package core

import (
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
// field added to State and forgotten in emitState fails here (and
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
	g.mu.Lock()
	err := g.emitState(0, func(field string, value any) {
		if i := len(got); i < st.NumField() && reflect.TypeOf(value) != st.Field(i).Type {
			t.Errorf("section %d (%q) emitted as %T, want %v", i, field, value, st.Field(i).Type)
		}
		got = append(got, field)
	})
	g.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("producer emitted %v\nState's fields are  %v", got, want)
	}
}

// TestCheckpointAllocCeiling bounds what a checkpoint allocates against
// what it writes — snapshot plus the history records it appends: at most
// 8 bytes per byte on a first, cold checkpoint (2.9 measured, 1.4 MB for
// this state; capturing a whole State and then encoding it, indented, as
// one document took 7.5 MB, 8.9 per byte of a file twice the size). The
// state is sized so that the ledger and the plans — sections of thousands
// of entries — dominate.
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
	written := fileSize(t, dir, durable.SnapshotFile) + fileSize(t, dir, durable.HistoryFile)
	ratio := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(written)
	t.Logf("checkpoint allocated %d bytes to write %d: %.1fx", m1.TotalAlloc-m0.TotalAlloc, written, ratio)
	if ratio > 8 {
		t.Errorf("checkpoint allocated %.1f bytes per byte written, ceiling 8", ratio)
	}
}

// TestCheckpointFollowsDelta: what a checkpoint writes and allocates
// follows live state plus what was billed since the previous one, not the
// length of the ledger. A checkpoint after 10 new charges on top of 10 000
// old ones writes within 64 bytes (the digits of larger counts and sums;
// 3 244 against 3 211 measured) and allocates within a tenth (138–143 KB
// both) of what it does on top of 100. With the ledger in the snapshot it
// wrote 1 383 171 bytes against 16 940 and allocated 1.6 MB against 88 KB.
func TestCheckpointFollowsDelta(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ctx := context.Background()
	measure := func(old int) (written, allocated int64) {
		g := New(durableConfig())
		g.idem.limit = 16 // full in both runs: the window is live state
		root := g.Client("root")
		if err := root.Grant(ctx, "alice", 1e6); err != nil {
			t.Fatal(err)
		}
		charged := 0
		charge := func(n int) {
			for i := 0; i < n; i++ {
				charged++
				rctx := gae.WithRequestID(ctx, fmt.Sprintf("charge-%d", charged))
				if _, err := root.ChargeUsage(rctx, gae.ChargeRequest{User: "alice", Site: "siteA", CPUSeconds: 1, Note: "imported"}); err != nil {
					t.Fatal(err)
				}
			}
		}
		charge(old)
		s, err := durable.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := g.AttachStore(s); err != nil {
			t.Fatal(err)
		}
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		charge(10)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		snap := g.Telemetry.Snapshot()
		bytes, _ := snap.Value("checkpoint_bytes", "")
		if records, _ := snap.Value("checkpoint_history_records", ""); records != 10 {
			t.Fatalf("the checkpoint after 10 charges on top of %d appended %v history records", old, records)
		}
		if st, err := g.Quota.Export(0); err != nil || len(st.Ledger) != old+10 {
			t.Fatalf("the ledger holds %d entries (%v), want %d", len(st.Ledger), err, old+10)
		}
		return int64(bytes), int64(m1.TotalAlloc - m0.TotalAlloc)
	}
	smallW, smallA := measure(100)
	largeW, largeA := measure(10000)
	t.Logf("on top of 100 charges: %d bytes written, %d allocated; on top of 10 000: %d written, %d allocated", smallW, smallA, largeW, largeA)
	if largeW > smallW+64 {
		t.Errorf("a checkpoint on top of 10 000 charges wrote %d bytes, %d on top of 100: it should follow the 10 new ones", largeW, smallW)
	}
	if largeA > smallA+smallA/10 {
		t.Errorf("a checkpoint on top of 10 000 charges allocated %d bytes, %d on top of 100: it should follow the 10 new ones", largeA, smallA)
	}
}

func fileSize(t *testing.T, dir, name string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestLocalCallAllocCeilings bounds what one call of the local client
// allocates, in counts that repeat exactly: a journaled SetState with a
// store attached (the journal record, its argument array and the fsync
// wait) 12, the same call with no store 1, and a GetState, which is not
// journaled, none. Dispatching a call through its method's row adds no
// closure and no boxed value.
func TestLocalCallAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ctx := context.Background()
	g := New(durableConfig())
	alice := g.Client("alice")
	set := func() {
		if err := alice.SetState(ctx, "cuts", "pt>20"); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		if v, err := alice.GetState(ctx, "cuts"); err != nil || v != "pt>20" {
			t.Fatalf("GetState = %q, %v", v, err)
		}
	}
	set()
	if n := testing.AllocsPerRun(500, set); n > 1 {
		t.Errorf("SetState with no store: %v allocations, ceiling 1", n)
	}
	if n := testing.AllocsPerRun(500, get); n > 0 {
		t.Errorf("GetState: %v allocations, ceiling 0", n)
	}
	s, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, set); n > 12 {
		t.Errorf("SetState with a store: %v allocations, ceiling 12", n)
	}
}
