package durable_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/pkg/gae"
)

// crashRun is one run of the write mix on a MemFS and what it
// acknowledged.
type crashRun struct {
	mem *durable.MemFS
	// states holds the encoded live state before the first op and after
	// each applied one.
	states [][]byte
	// starts and acks hold, per op, the calls the MemFS had recorded when
	// the op began and when it was acknowledged (-1: it was not).
	starts, acks []int
	// last is where the last step began: the failing one, in a run that
	// ended of a fault.
	last int
}

// runMix runs the write mix of seed through a core deployment on a fresh
// MemFS: ops calls that set session state, charge usage (the history
// segment's ledger) or grant credits, each after a second of simulated
// time, with a checkpoint after some. The fsync numbered failSync fails
// (none when it is negative), and the run ends where gae-server exits —
// at a failed Open, at a failed checkpoint, and at a lost journal write,
// through the OnDurabilityLoss hook. It returns the fsyncs the run asked
// for.
func runMix(t testing.TB, seed int64, ops, failSync int) (crashRun, int) {
	t.Helper()
	ctx := context.Background()
	r := rand.New(rand.NewSource(seed))
	syncs := 0
	run := crashRun{mem: durable.NewMemFS("data", nil)}
	run.mem.Fail = func(op, _ string, n int) (int, error) {
		if op == "sync" {
			syncs++
			if syncs-1 == failSync {
				return 0, durable.ErrInjected
			}
		}
		return n, nil
	}
	g := core.New(chargeConfig())
	run.states = [][]byte{encodedState(t, g)}
	s, err := durable.OpenOn(run.mem, "data")
	if err != nil {
		if !errors.Is(err, durable.ErrInjected) {
			t.Fatal(err)
		}
		return run, syncs
	}
	lost := false
	g.OnDurabilityLoss(func(error) { lost = true })
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	alice, root := g.Client("alice"), g.Client("root")
	for i := 0; i < ops; i++ {
		g.Run(time.Second)
		run.last = run.mem.Calls()
		run.starts = append(run.starts, run.last)
		switch r.Intn(3) {
		case 0:
			// Up to 1 200 bytes: a record that crosses 512-byte boundaries.
			err = alice.SetState(ctx, fmt.Sprintf("k%d", r.Intn(3)), strings.Repeat(string(rune('a'+i%26)), r.Intn(1200)))
		case 1:
			_, err = root.ChargeUsage(ctx, gae.ChargeRequest{User: "alice", Site: "siteA", CPUSeconds: float64(1 + r.Intn(9)), MB: 1, Note: fmt.Sprintf("charge %d", i)})
		default:
			err = root.Grant(ctx, "alice", float64(1+r.Intn(9)))
		}
		run.states = append(run.states, encodedState(t, g))
		if err != nil {
			if !lost {
				t.Fatalf("op %d: %v", i, err)
			}
			run.acks = append(run.acks, -1)
			return run, syncs
		}
		run.acks = append(run.acks, run.mem.Calls())
		if i > 0 && r.Intn(3) == 0 {
			run.last = run.mem.Calls()
			if err := g.Checkpoint(); err != nil {
				if !errors.Is(err, durable.ErrInjected) {
					t.Fatal(err)
				}
				return run, syncs
			}
		}
	}
	return run, syncs
}

// crashState is a disk state a power loss can leave, and what recovering
// it must give: the live state after p ops for some p in [lo, hi].
type crashState struct {
	files  map[string][]byte
	lo, hi int
	where  string // the first run and crash point that leaves it
}

// crashStates gathers distinct crash states, in the order first seen.
type crashStates struct {
	byKey map[string]*crashState
	order []string
}

// add gathers the states run leaves at the crash points from through
// until. Every op acknowledged by a point must survive a crash there, and
// no op that had not begun can; a state many points leave must meet all
// of their bounds.
func (cs *crashStates) add(run crashRun, label string, from, until int) {
	run.mem.CrashStates("data", from, func(point int, files map[string][]byte) {
		if point > until {
			return
		}
		acked, applied := 0, 0
		for i := range run.starts {
			if run.acks[i] >= 0 && run.acks[i] <= point {
				acked++
			}
			if run.starts[i] < point {
				applied++
			}
		}
		key := stateKey(files)
		st := cs.byKey[key]
		if st == nil {
			st = &crashState{files: files, lo: acked, hi: applied, where: fmt.Sprintf("%s, crash after call %d", label, point)}
			cs.byKey[key] = st
			cs.order = append(cs.order, key)
		}
		st.lo, st.hi = max(st.lo, acked), min(st.hi, applied)
	})
}

// stateKey names a state by its file names and the contents of the three
// the store reads: a checkpoint's temp file is removed unread.
func stateKey(files map[string][]byte) string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(name)
		if name == durable.SnapshotFile || name == durable.JournalFile || name == durable.HistoryFile {
			fmt.Fprintf(&b, " %d:%s", len(files[name]), files[name])
		}
		b.WriteByte(0)
	}
	return b.String()
}

// recoverState writes st into dir and recovers it the production way,
// durable.Open and AttachStore. The recovered state must be the live state
// after p ops for a p st allows, the directory must hold no file but the
// three named ones after Open, and all three after one checkpoint.
func recoverState(t testing.TB, dir string, states [][]byte, st *crashState) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, raw := range st.files {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st.lo > st.hi {
		t.Fatalf("%s: a state one crash point leaves with %d ops acknowledged, another before op %d began", st.where, st.lo, st.hi+1)
	}
	s, err := durable.Open(dir)
	if err != nil {
		t.Fatalf("%s: %v", st.where, err)
	}
	defer s.Close()
	if warn := s.ScanWarning(); warn != nil {
		t.Fatalf("%s: journal scan: %v", st.where, warn)
	}
	onlyStoreFiles(t, dir, st.where+", after Open", false)
	g := core.New(chargeConfig())
	if err := g.AttachStore(s); err != nil {
		t.Fatalf("%s: %v", st.where, err)
	}
	got := encodedState(t, g)
	if !slices.ContainsFunc(states[st.lo:st.hi+1], func(want []byte) bool { return bytes.Equal(got, want) }) {
		p := slices.IndexFunc(states, func(want []byte) bool { return bytes.Equal(got, want) })
		t.Fatalf("%s: the recovered state is the live one after %d ops (-1: no live state), want one after %d to %d", st.where, p, st.lo, st.hi)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatalf("%s: checkpoint after recovery: %v", st.where, err)
	}
	onlyStoreFiles(t, dir, st.where+", after a checkpoint", true)
}

// onlyStoreFiles fails unless dir holds no file but snapshot, journal and
// history, and all three when all is set.
func onlyStoreFiles(t testing.TB, dir, where string, all bool) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	for _, name := range names {
		if name != durable.SnapshotFile && name != durable.JournalFile && name != durable.HistoryFile {
			t.Fatalf("%s: the directory holds %v", where, names)
		}
	}
	if all && len(names) != 3 {
		t.Fatalf("%s: the directory holds %v", where, names)
	}
}

// TestCrashStates enumerates the disk states a power loss can leave under
// the persistence model (durable's package doc) and recovers each. It runs
// the seeded write mix on a MemFS, then once per fsync of that run with
// the fsync failed, which ends the run in the failing step. For every crash
// point of the first run and of each failed run's last step, and every
// state the model allows there, it writes the state into a directory and
// recovers it through durable.Open and AttachStore: the recovered state
// must equal the live state after some prefix of the applied ops that
// holds every acknowledged one, and the directory must hold the snapshot,
// journal and history alone — after Open no checkpoint's temp file, after
// one checkpoint all three.
func TestCrashStates(t *testing.T) {
	const (
		seed = 1
		ops  = 16
		// maxStates bounds the recoveries (a seeded sample past it); the
		// mix above leaves fewer.
		maxStates = 400
	)
	cs := crashStates{byKey: map[string]*crashState{}}
	base, syncs := runMix(t, seed, ops, -1)
	cs.add(base, "no fault", 0, base.mem.Calls())
	for k := 0; k < syncs; k++ {
		run, _ := runMix(t, seed, ops, k)
		for i, st := range run.states {
			if !bytes.Equal(st, base.states[i]) {
				t.Fatalf("fsync %d fails: the live state after op %d differs from the run without a fault", k, i)
			}
		}
		cs.add(run, fmt.Sprintf("fsync %d fails", k), run.last, run.mem.Calls())
	}
	order := cs.order
	if len(order) > maxStates {
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		order = order[:maxStates]
	}
	root := t.TempDir()
	for n, key := range order {
		recoverState(t, filepath.Join(root, strconv.Itoa(n)), base.states, cs.byKey[key])
	}
	t.Logf("%d ops, %d fsyncs each failed in a run of its own, %d distinct crash states, %d recovered", len(base.starts), syncs, len(cs.order), len(order))
}

// FuzzCrashStates is TestCrashStates over seeds of the write mix, its
// length, the fsync that fails (none when negative or past the run's
// last), the crash point and the state there, one state an input.
func FuzzCrashStates(f *testing.F) {
	f.Add(int64(1), uint8(10), int16(-1), uint16(40), uint16(0))
	f.Add(int64(2), uint8(6), int16(4), uint16(30), uint16(3))
	f.Add(int64(3), uint8(14), int16(11), uint16(90), uint16(7))
	f.Fuzz(func(t *testing.T, seed int64, ops uint8, failSync int16, point, pick uint16) {
		run, _ := runMix(t, seed, 1+int(ops%16), int(failSync))
		at := int(point) % (run.mem.Calls() + 1)
		cs := crashStates{byKey: map[string]*crashState{}}
		cs.add(run, fmt.Sprintf("seed %d, fsync %d fails", seed, failSync), at, at)
		recoverState(t, t.TempDir(), run.states, cs.byKey[cs.order[int(pick)%len(cs.order)]])
	})
}
