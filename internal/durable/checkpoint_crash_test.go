package durable_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/pkg/gae"
)

// snapshotTemp is the base name of the temp file a checkpoint streams the
// snapshot into.
const snapshotTemp = "." + durable.SnapshotFile + ".tmp"

// fillAfter is a MemFS fault script: a disk that fills up under file name,
// whose writes land until left bytes have, then come up short with
// ErrInjected.
func fillAfter(name string, left int) func(op, file string, n int) (int, error) {
	return func(op, file string, n int) (int, error) {
		if op != "write" || file != name {
			return n, nil
		}
		if n <= left {
			left -= n
			return n, nil
		}
		kept := left
		left = 0
		return kept, durable.ErrInjected
	}
}

// failOnce is a MemFS fault script: the first call op on file name fails.
func failOnce(op, name string) func(string, string, int) (int, error) {
	armed := true
	return func(o, file string, n int) (int, error) {
		if armed && o == op && file == name {
			armed = false
			return 0, durable.ErrInjected
		}
		return n, nil
	}
}

func crashConfig() core.Config {
	return core.Config{
		Sites: []core.SiteSpec{{Name: "siteA", Nodes: 1, CostPerCPUSecond: 0.1}, {Name: "siteB", Nodes: 1, CostPerCPUSecond: 0.02}},
		Links: []core.LinkSpec{{A: "siteA", B: "siteB", MBps: 10}},
		Users: []core.UserSpec{{Name: "alice", Password: "pw", Credits: 1000}},
	}
}

func encodedState(t testing.TB, g *core.GAE) []byte {
	t.Helper()
	st, err := g.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := durable.EncodeState(&st)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFailedCheckpointWriteChangesNothing: the streamed snapshot goes to
// a temp file and replaces snapshot.json only once it is whole and
// fsynced. A write that fails part-way — inside the first buffer, or
// after whole buffers have already reached the file — or a failed fsync
// makes Checkpoint return the error and leaves snapshot.json and the
// journal byte for byte what they were, no temp file behind, and a
// recovery from the directory equal to the live state. The process lives
// on here; TestCrashStates holds the one that dies of the fault.
func TestFailedCheckpointWriteChangesNothing(t *testing.T) {
	faults := map[string]func(op, name string, n int) (int, error){
		"write fails in the first buffer": fillAfter(snapshotTemp, 100),
		"write fails after 100 KiB":       fillAfter(snapshotTemp, 100<<10),
		"fsync fails":                     failOnce("sync", snapshotTemp),
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			mem := durable.NewMemFS("data", nil)
			g := core.New(crashConfig())
			s, err := durable.OpenOn(mem, "data")
			if err != nil {
				t.Fatal(err)
			}
			if err := g.AttachStore(s); err != nil {
				t.Fatal(err)
			}
			alice := g.Client("alice")
			// 160 KiB of session state: the snapshot spans several of the
			// writer's 64 KiB buffers.
			for i := 0; i < 40; i++ {
				if err := alice.SetState(ctx, fmt.Sprintf("k%02d", i), strings.Repeat("v", 4<<10)); err != nil {
					t.Fatal(err)
				}
			}
			g.Run(30 * time.Second)
			if err := g.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := alice.SetState(ctx, "tail", "journaled after the good checkpoint"); err != nil {
				t.Fatal(err)
			}
			before := mem.Files("data")
			snapBefore, journalBefore := before[durable.SnapshotFile], before[durable.JournalFile]
			if len(snapBefore) < 128<<10 || len(journalBefore) == 0 {
				t.Fatalf("set-up: snapshot %d bytes, journal %d bytes", len(snapBefore), len(journalBefore))
			}

			mem.Fail = fault
			if err := g.Checkpoint(); !errors.Is(err, durable.ErrInjected) {
				t.Fatalf("Checkpoint over a failing temp file: err = %v, want the injected fault", err)
			}
			after := mem.Files("data")
			if !bytes.Equal(after[durable.SnapshotFile], snapBefore) {
				t.Error("the failed checkpoint changed snapshot.json")
			}
			if !bytes.Equal(after[durable.JournalFile], journalBefore) {
				t.Error("the failed checkpoint changed the journal")
			}
			for name := range after {
				if name != durable.SnapshotFile && name != durable.JournalFile && name != durable.HistoryFile {
					t.Errorf("the failed checkpoint left %s behind", name)
				}
			}

			// The store is not poisoned: ops keep journaling, and the process
			// can die here with nothing lost.
			if err := alice.SetState(ctx, "after", "the failed checkpoint"); err != nil {
				t.Fatal(err)
			}
			live := encodedState(t, g)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			g2 := core.New(crashConfig())
			s2, err := durable.OpenOn(mem, "data")
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if warn := s2.ScanWarning(); warn != nil {
				t.Fatalf("journal scan after the failed checkpoint: %v", warn)
			}
			if err := g2.AttachStore(s2); err != nil {
				t.Fatal(err)
			}
			if recovered := encodedState(t, g2); !bytes.Equal(live, recovered) {
				t.Fatalf("recovered state differs from the live one (%d vs %d bytes)", len(recovered), len(live))
			}
			// With the fault gone the next checkpoint lands.
			mem.Fail = nil
			if err := g2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFailedFsyncIsNeverAcknowledged: a grant whose fsync fails is not
// acknowledged, and neither is a second delivery of its request ID while
// the journal is broken — it gets the journal's error, not the recorded
// result. The checkpoint that heals the journal persists the grant, so a
// third delivery returns the recorded result, the balance shows the grant
// once, and a restart recovers the same state byte for byte.
func TestFailedFsyncIsNeverAcknowledged(t *testing.T) {
	ctx := context.Background()
	mem := durable.NewMemFS("data", nil)
	g, s := recoverInto(t, mem)
	alice, root := g.Client("alice"), g.Client("root")
	before, err := alice.Balance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mem.Fail = failOnce("sync", durable.JournalFile)
	r1 := gae.WithRequestID(ctx, "r1")
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
	if err := root.Grant(gae.WithRequestID(ctx, "r2"), "alice", 5); err != nil {
		t.Fatalf("fresh call after the checkpoint: %v", err)
	}
	want := encodedState(t, g)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	g2, s2 := recoverInto(t, mem)
	defer s2.Close()
	if got := encodedState(t, g2); !bytes.Equal(want, got) {
		t.Fatalf("recovered state differs from the live one (%d vs %d bytes)", len(got), len(want))
	}
}

// recoverInto opens the data directory on mem and attaches a fresh
// deployment to it.
func recoverInto(t *testing.T, mem *durable.MemFS) (*core.GAE, *durable.Store) {
	t.Helper()
	s, err := durable.OpenOn(mem, "data")
	if err != nil {
		t.Fatal(err)
	}
	if warn := s.ScanWarning(); warn != nil {
		t.Fatalf("journal scan: %v", warn)
	}
	g := core.New(chargeConfig())
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	return g, s
}

func chargeConfig() core.Config {
	cfg := crashConfig()
	cfg.Users = append(cfg.Users, core.UserSpec{Name: "root", Password: "pw", Admin: true})
	return cfg
}

// TestHistoryCrashEnumeration enumerates the faults a checkpoint's history
// append can meet in a process that sees them. For every split of up to
// six charges over two checkpoints (the first one also skipped: no
// snapshot yet), the second checkpoint fails
//
//   - inside its history append, on a full disk — at every record boundary
//     and the byte either side of it, and for the histories of one and two
//     charges at every byte offset — and the process dies (the old
//     snapshot counts none of the append, the journal holds every op);
//   - at each of its steps — a torn history append, a failed history
//     fsync, a failed snapshot write or fsync after the history fsync, a
//     failed journal truncate after the rename — and the process lives on
//     to a checkpoint that lands (whole records no snapshot counts sit in
//     the segment when it does), and dies then;
//
// and then the directory is reopened, replayed and checkpointed again.
// Every acknowledged charge must be in the ledger exactly once, in order,
// the encoded state must equal the uncrashed run's byte for byte — after
// the replay and again from the snapshot and the segment alone — and the
// segment must hold each charge once. A process that dies of a fault at
// one of the steps, and a power loss anywhere, are TestCrashStates's.
func TestHistoryCrashEnumeration(t *testing.T) {
	ctx := context.Background()
	type split struct {
		first, second int
		coldStart     bool // no first checkpoint: the fault hits the first snapshot ever written
	}
	var splits []split
	for total := 1; total <= 6; total++ {
		for second := 1; second <= total; second++ {
			splits = append(splits, split{first: total - second, second: second})
		}
		splits = append(splits, split{second: total, coldStart: true})
	}
	points := 0
	for _, sp := range splits {
		// The uncrashed run, stopped where the second checkpoint begins.
		mem := durable.NewMemFS("data", nil)
		g, s := recoverInto(t, mem)
		root := g.Client("root")
		charge := func(i int) {
			t.Helper()
			g.Run(time.Second)
			if _, err := root.ChargeUsage(ctx, gae.ChargeRequest{User: "alice", Site: "siteA", CPUSeconds: float64(i + 1), MB: 1, Note: fmt.Sprintf("charge %d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < sp.first; i++ {
			charge(i)
		}
		if !sp.coldStart {
			if err := g.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		for i := sp.first; i < sp.first+sp.second; i++ {
			charge(i)
		}
		want := encodedState(t, g)
		before := mem.Files("data")
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		delta := mem.Files("data")[durable.HistoryFile][len(before[durable.HistoryFile]):]
		appended := len(delta)
		s.Close()
		// Where to tear the append: around every record boundary, and
		// everywhere for the short histories.
		cuts := map[int]bool{0: true}
		records := 0
		for at := 0; at < appended; records++ {
			size, w := binary.Uvarint(delta[at:])
			at += w + 4 + int(size)
			for _, cut := range []int{at - 1, at, at + 1} {
				cuts[cut] = cut < appended
			}
		}
		if records != sp.second {
			t.Fatalf("split %+v: the uncrashed checkpoint appended %d history records", sp, records)
		}
		for cut := 0; cut < appended && sp.first+sp.second <= 2; cut++ {
			cuts[cut] = true
		}

		verify := func(name string, mem *durable.MemFS) {
			t.Helper()
			points++
			for _, from := range []string{"after the replay", "from snapshot and segment alone"} {
				g, s := recoverInto(t, mem)
				st, err := g.Quota.Export(0)
				if err != nil {
					t.Fatal(err)
				}
				ledger := st.Ledger
				if len(ledger) != sp.first+sp.second {
					t.Fatalf("split %+v, %s, %s: %d ledger entries, want %d", sp, name, from, len(ledger), sp.first+sp.second)
				}
				for i, c := range ledger {
					if c.Note != fmt.Sprintf("charge %d", i) {
						t.Fatalf("split %+v, %s, %s: ledger entry %d is %q", sp, name, from, i, c.Note)
					}
				}
				if got := encodedState(t, g); !bytes.Equal(got, want) {
					t.Fatalf("split %+v, %s, %s: recovered state differs from the uncrashed run's (%d vs %d bytes)", sp, name, from, len(got), len(want))
				}
				if err := g.Checkpoint(); err != nil {
					t.Fatalf("split %+v, %s, %s: checkpoint: %v", sp, name, from, err)
				}
				s.Close()
			}
			after := mem.Files("data")
			if len(after[durable.HistoryFile]) != len(before[durable.HistoryFile])+appended || len(after[durable.JournalFile]) != 0 || bytes.Contains(after[durable.SnapshotFile], []byte("ledger")) {
				t.Fatalf("split %+v, %s: history.log is %d bytes (want %d), journal %d, snapshot:\n%s", sp, name, len(after[durable.HistoryFile]), len(before[durable.HistoryFile])+appended, len(after[durable.JournalFile]), after[durable.SnapshotFile])
			}
		}
		// crash recovers the pre-checkpoint directory, scripts one fault,
		// and lets the second checkpoint fail of it. The process dies there,
		// or with survive set lives on — the fault lifted, the same store
		// checkpoints again — and is killed then.
		crash := func(name string, survive bool, fault func(op, file string, n int) (int, error)) {
			t.Helper()
			mem := durable.NewMemFS("data", before)
			g, s := recoverInto(t, mem)
			mem.Fail = fault
			if err := g.Checkpoint(); !errors.Is(err, durable.ErrInjected) {
				t.Fatalf("split %+v, %s: Checkpoint = %v, want the injected fault", sp, name, err)
			}
			mem.Fail = nil
			if survive {
				name += ", then a checkpoint that lands"
				if err := g.Checkpoint(); err != nil {
					t.Fatalf("split %+v, %s: %v", sp, name, err)
				}
			}
			s.Close()
			verify(name, mem)
		}
		for cut := 0; cut < appended; cut++ {
			if cuts[cut] {
				crash(fmt.Sprintf("append torn at byte %d of %d", cut, appended), false, fillAfter(durable.HistoryFile, cut))
			}
		}
		crash(fmt.Sprintf("append torn at byte %d of %d", appended/2, appended), true, fillAfter(durable.HistoryFile, appended/2))
		crash("history fsync fails", true, failOnce("sync", durable.HistoryFile))
		crash("snapshot write fails after the history fsync", true, fillAfter(snapshotTemp, 0))
		crash("snapshot fsync fails after the history fsync", true, failOnce("sync", snapshotTemp))
		crash("journal truncate fails after the rename", true, failOnce("truncate", durable.JournalFile))
	}
	t.Logf("%d splits, %d crash points", len(splits), points)
}
