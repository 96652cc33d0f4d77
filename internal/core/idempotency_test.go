package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/clarens"
	"repro/internal/durable"
)

// TestDedupReturnsOriginalResult pins the core dedup contract on the
// local transport: a second call under the same request ID is not
// re-applied — it returns the originally recorded result, even for a
// call the service would now reject as a duplicate.
func TestDedupReturnsOriginalResult(t *testing.T) {
	g := New(durableConfig())
	ctx := context.Background()
	alice := g.Client("alice")

	rctx := clarens.WithRequestID(ctx, "rid-submit")
	name, err := alice.Submit(rctx, specOf("p1", 30))
	if err != nil || name != "p1" {
		t.Fatalf("submit = %q, %v", name, err)
	}
	// Without dedup this is a semantic duplicate-plan rejection.
	again, err := alice.Submit(rctx, specOf("p1", 30))
	if err != nil {
		t.Fatalf("retried submit: %v, want recorded result", err)
	}
	if again != name {
		t.Fatalf("retried submit = %q, want original %q", again, name)
	}
	if _, err := alice.Submit(ctx, specOf("p1", 30)); err == nil {
		t.Fatal("fresh-ID duplicate submit succeeded; dedup must key on the request ID, not the payload")
	}

	// Reads are not journaled and must ignore the window entirely.
	if err := alice.SetState(ctx, "x", "live"); err != nil {
		t.Fatal(err)
	}
	if v, err := alice.GetState(rctx, "x"); err != nil || v != "live" {
		t.Fatalf("read under a recorded request ID = %q, %v; want the live value", v, err)
	}

	// A request ID must not alias across methods.
	if err := alice.SetState(rctx, "k", "v"); err == nil || !strings.Contains(err.Error(), "reused") {
		t.Fatalf("request ID reused across methods: err = %v, want reuse rejection", err)
	}
}

// TestDedupSurvivesCheckpointRestart covers the acceptance criterion at
// the core layer: first delivery, checkpoint, restart, then the retry —
// the window must come back from the snapshot and suppress the
// duplicate.
func TestDedupSurvivesCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	g1 := New(durableConfig())
	s1, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.AttachStore(s1); err != nil {
		t.Fatal(err)
	}
	root := g1.Client("root")
	rctx := clarens.WithRequestID(ctx, "rid-grant")
	if err := root.Grant(rctx, "alice", 25); err != nil {
		t.Fatal(err)
	}
	before, err := g1.Client("alice").Balance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	g2 := New(durableConfig())
	s2, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := g2.AttachStore(s2); err != nil {
		t.Fatal(err)
	}
	if err := g2.Client("root").Grant(rctx, "alice", 25); err != nil {
		t.Fatalf("retried grant after restart: %v, want deduplicated success", err)
	}
	after, err := g2.Client("alice").Balance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("balance %v after retried grant, want %v (grant re-applied across restart)", after, before)
	}
}

// TestConcurrentDuplicateDeliveryAppliesOnce sends each of 100 request
// IDs twice at once, the way a retry can overtake its own first delivery
// while that one is still applying or waiting on the fsync: every grant
// must apply once.
func TestConcurrentDuplicateDeliveryAppliesOnce(t *testing.T) {
	g := New(durableConfig())
	s, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before, err := g.Client("alice").Balance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const ids = 100
	root := g.Client("root")
	var wg sync.WaitGroup
	for i := 0; i < ids; i++ {
		rctx := clarens.WithRequestID(ctx, ridN(i))
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := root.Grant(rctx, "alice", 7); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	after, err := g.Client("alice").Balance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := (after - before) / 7; got != ids {
		t.Fatalf("%v grants applied for %d request IDs delivered twice each", got, ids)
	}
}

// TestFailedFsyncIsNeverAcknowledged: a grant whose fsync fails is not
// acknowledged, and neither is a second delivery of its request ID while
// the journal is broken — it gets the journal's error, not the recorded
// result. The checkpoint that heals the journal persists the grant, so a
// third delivery returns the recorded result, the balance shows the grant
// once, and a restart recovers the same state byte for byte.
func TestFailedFsyncIsNeverAcknowledged(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	ctx := context.Background()
	g := New(cfg)
	s, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	alice, root := g.Client("alice"), g.Client("root")
	before, err := alice.Balance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFaults().FailSyncs(1)
	r1 := clarens.WithRequestID(ctx, "r1")
	if err := root.Grant(r1, "alice", 25); !errors.Is(err, durable.ErrInjected) {
		t.Fatalf("first delivery: err = %v, want the failed fsync", err)
	}
	if err := root.Grant(r1, "alice", 25); !errors.Is(err, durable.ErrInjected) {
		t.Fatalf("second delivery: err = %v, want the journal's error, not the recorded result", err)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatalf("checkpoint over the broken journal: %v", err)
	}
	if err := root.Grant(r1, "alice", 25); err != nil {
		t.Fatalf("third delivery, after the checkpoint: %v", err)
	}
	if after, err := alice.Balance(ctx); err != nil || after != before+25 {
		t.Fatalf("balance %v (%v), want %v: the grant once", after, err, before+25)
	}
	if err := root.Grant(clarens.WithRequestID(ctx, "r2"), "alice", 5); err != nil {
		t.Fatalf("fresh call after the checkpoint: %v", err)
	}
	want := encodeState(t, g)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := New(cfg)
	s2, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := g2.AttachStore(s2); err != nil {
		t.Fatal(err)
	}
	if got := encodeState(t, g2); !bytes.Equal(want, got) {
		diffLines(t, want, got)
	}
}

// TestDedupWindowEvictsOldest bounds the per-user window: once more
// than idemPerUser ops are recorded, the oldest request IDs fall
// out and a very late retry is treated as a fresh call again.
func TestDedupWindowEvictsOldest(t *testing.T) {
	g := New(durableConfig())
	ctx := context.Background()
	root := g.Client("root")

	first := clarens.WithRequestID(ctx, "rid-0")
	if err := root.Grant(first, "alice", 1); err != nil {
		t.Fatal(err)
	}
	if err := root.Grant(first, "alice", 1); err != nil {
		t.Fatalf("in-window retry: %v", err)
	}
	for i := 1; i <= idemPerUser; i++ {
		if err := root.Grant(clarens.WithRequestID(ctx, ridN(i)), "alice", 1); err != nil {
			t.Fatal(err)
		}
	}
	bal, err := g.Client("alice").Balance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// rid-0 has been evicted: the retry applies again.
	if err := root.Grant(first, "alice", 1); err != nil {
		t.Fatal(err)
	}
	bal2, err := g.Client("alice").Balance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bal2 != bal+1 {
		t.Fatalf("balance %v after evicted-ID retry, want %v (window never evicts?)", bal2, bal+1)
	}
}

func ridN(i int) string {
	return "rid-fill-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
