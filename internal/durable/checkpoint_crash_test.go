package durable_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/pkg/gae"
)

// failAfter is a snapshot temp file whose disk fills up: writes succeed
// until left bytes have landed, then come up short with ErrInjected.
type failAfter struct {
	durable.File
	left int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.left {
		f.left -= len(p)
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:f.left])
	f.left = 0
	return n, durable.ErrInjected
}

func crashConfig() core.Config {
	return core.Config{
		Seed:  1,
		Sites: []core.SiteSpec{{Name: "siteA", Nodes: 1, CostPerCPUSecond: 0.1}, {Name: "siteB", Nodes: 1, CostPerCPUSecond: 0.02}},
		Links: []core.LinkSpec{{A: "siteA", B: "siteB", MBps: 10}},
		Users: []core.UserSpec{{Name: "alice", Password: "pw", Credits: 1000}},
	}
}

func encodedState(t *testing.T, g *core.GAE) []byte {
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
// recovery from the directory equal to the live state.
func TestFailedCheckpointWriteChangesNothing(t *testing.T) {
	faults := map[string]func(durable.File) durable.File{
		"write fails in the first buffer": func(f durable.File) durable.File { return &failAfter{File: f, left: 100} },
		"write fails after 100 KiB":       func(f durable.File) durable.File { return &failAfter{File: f, left: 100 << 10} },
		"fsync fails": func(f durable.File) durable.File {
			ff := durable.NewFaultyFile(f)
			ff.FailSyncs(1)
			return ff
		},
	}
	for name, wrap := range faults {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			g := core.New(crashConfig())
			s, err := durable.Open(dir)
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
			read := func(name string) []byte {
				raw, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			snapBefore, journalBefore := read(durable.SnapshotFile), read(durable.JournalFile)
			if len(snapBefore) < 128<<10 || len(journalBefore) == 0 {
				t.Fatalf("set-up: snapshot %d bytes, journal %d bytes", len(snapBefore), len(journalBefore))
			}

			s.WrapSnapshotTemp(wrap)
			if err := g.Checkpoint(); !errors.Is(err, durable.ErrInjected) {
				t.Fatalf("Checkpoint over a failing temp file: err = %v, want the injected fault", err)
			}
			if !bytes.Equal(read(durable.SnapshotFile), snapBefore) {
				t.Error("the failed checkpoint changed snapshot.json")
			}
			if !bytes.Equal(read(durable.JournalFile), journalBefore) {
				t.Error("the failed checkpoint changed the journal")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Name() != durable.SnapshotFile && e.Name() != durable.JournalFile && e.Name() != durable.HistoryFile {
					t.Errorf("the failed checkpoint left %s behind", e.Name())
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
			s2, err := durable.Open(dir)
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
			if err := g2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// failTruncate is a journal file whose truncate fails: the checkpoint dies
// between renaming the snapshot in and cutting the journal it supersedes.
type failTruncate struct{ durable.File }

func (failTruncate) Truncate(int64) error { return durable.ErrInjected }

// crashDir is a data directory as a process death left it.
type crashDir struct{ snapshot, journal, history []byte }

func readCrashDir(t *testing.T, dir string) crashDir {
	t.Helper()
	read := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		return raw
	}
	return crashDir{read(durable.SnapshotFile), read(durable.JournalFile), read(durable.HistoryFile)}
}

func (c crashDir) write(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, raw := range map[string][]byte{durable.SnapshotFile: c.snapshot, durable.JournalFile: c.journal, durable.HistoryFile: c.history} {
		if raw == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// recoverInto opens dir and attaches a fresh deployment to it.
func recoverInto(t *testing.T, dir string) (*core.GAE, *durable.Store) {
	t.Helper()
	s, err := durable.Open(dir)
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

// TestHistoryCrashEnumeration enumerates the crash windows the history
// segment opens instead of sampling them. For every split of up to six
// charges over two checkpoints (the first one also skipped: no snapshot
// yet), the second checkpoint dies
//
//   - inside its history append — at every record boundary and the byte
//     either side of it, and for the histories of one and two charges at
//     every byte offset (the old snapshot counts none of the append, the
//     journal holds every op),
//   - between the append's fsync and the snapshot's rename, on either
//     side of the snapshot's own fsync (whole records no snapshot counts),
//   - between the rename and the journal's truncate (the new snapshot
//     meets the records it counts; the journal's ops are all covered),
//
// and then the directory is reopened, replayed and checkpointed again.
// Every acknowledged charge must be in the ledger exactly once, in order,
// the encoded state must equal the uncrashed run's byte for byte — after
// the replay and again from the snapshot and the segment alone — and the
// segment must hold each charge once.
func TestHistoryCrashEnumeration(t *testing.T) {
	ctx := context.Background()
	type split struct {
		first, second int
		coldStart     bool // no first checkpoint: the crash hits the first snapshot ever written
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
		dir := t.TempDir()
		g, s := recoverInto(t, dir)
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
		before := readCrashDir(t, dir)
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		delta := readCrashDir(t, dir).history[len(before.history):]
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

		verify := func(name, dir string) {
			t.Helper()
			points++
			for _, from := range []string{"after the replay", "from snapshot and segment alone"} {
				g, s := recoverInto(t, dir)
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
			after := readCrashDir(t, dir)
			if len(after.history) != len(before.history)+appended || len(after.journal) != 0 || bytes.Contains(after.snapshot, []byte("ledger")) {
				t.Fatalf("split %+v, %s: history.log is %d bytes (want %d), journal %d, snapshot:\n%s", sp, name, len(after.history), len(before.history)+appended, len(after.journal), after.snapshot)
			}
		}
		// crash recovers the pre-checkpoint directory, arms one fault, and
		// lets the second checkpoint die of it. With survive set the process
		// lives on instead — disarm lifts the fault and the same store
		// checkpoints again — and is killed then.
		crash := func(name string, survive bool, arm func(*durable.Store) (disarm func())) {
			t.Helper()
			dir := before.write(t)
			g, s := recoverInto(t, dir)
			disarm := arm(s)
			if err := g.Checkpoint(); !errors.Is(err, durable.ErrInjected) {
				t.Fatalf("split %+v, %s: Checkpoint = %v, want the injected fault", sp, name, err)
			}
			if survive {
				name += ", then a checkpoint that lands"
				disarm()
				if err := g.Checkpoint(); err != nil {
					t.Fatalf("split %+v, %s: %v", sp, name, err)
				}
			}
			s.Close()
			verify(name, dir)
		}
		tornAt := func(cut int) func(*durable.Store) func() {
			return func(s *durable.Store) func() {
				torn := &failAfter{left: cut}
				s.WrapHistory(func(f durable.File) durable.File { torn.File = f; return torn })
				return func() { torn.left = 1 << 30 }
			}
		}
		failSync := func(f durable.File) durable.File {
			ff := durable.NewFaultyFile(f)
			ff.FailSyncs(1)
			return ff
		}
		for cut := 0; cut < appended; cut++ {
			if cuts[cut] {
				crash(fmt.Sprintf("append torn at byte %d of %d", cut, appended), false, tornAt(cut))
			}
		}
		for _, survive := range []bool{false, true} {
			crash(fmt.Sprintf("append torn at byte %d of %d", appended/2, appended), survive, tornAt(appended/2))
			crash("history fsync fails", survive, func(s *durable.Store) func() {
				s.WrapHistory(failSync)
				return func() {}
			})
			crash("snapshot write fails after the history fsync", survive, func(s *durable.Store) func() {
				s.WrapSnapshotTemp(func(f durable.File) durable.File { return &failAfter{File: f} })
				return func() { s.WrapSnapshotTemp(nil) }
			})
			crash("snapshot fsync fails after the history fsync", survive, func(s *durable.Store) func() {
				s.WrapSnapshotTemp(failSync)
				return func() { s.WrapSnapshotTemp(nil) }
			})
			crash("journal truncate fails after the rename", survive, func(s *durable.Store) func() {
				ff := s.InjectFaults()
				journal := ff.F
				ff.F = failTruncate{journal}
				return func() { ff.F = journal }
			})
		}
	}
	t.Logf("%d splits, %d crash points", len(splits), points)
}
