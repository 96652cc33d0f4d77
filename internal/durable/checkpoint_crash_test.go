package durable_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
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
				if e.Name() != durable.SnapshotFile && e.Name() != durable.JournalFile {
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
