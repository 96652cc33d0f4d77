package fairshare

import (
	"encoding/json"
	"slices"
	"testing"
	"time"
)

// TestStartSurvivesRestore: a tenant's last start is part of its account,
// so an export carries it even when the tenant has accrued no usage — as
// when its only job started on a node at full load, whose zero-rate flow
// registers nobody — and the restored manager does not find it starved.
func TestStartSurvivesRestore(t *testing.T) {
	cfg := Config{StarvationWindow: 5 * time.Minute}
	m, clock := newTestManager(cfg)
	submitted := clock.Now()
	clock.Advance(10 * time.Minute)
	m.ObserveStart(m.Tenant("bob"), clock.Now())
	clock.Advance(2 * time.Minute)
	refs := []JobRef{{Owner: "bob", Submitted: submitted, Seq: 1}}
	if m.SortKeysAt(clock.Now(), refs)[0].Starved {
		t.Fatal("bob was served 2 minutes ago, yet reads starved")
	}
	cfg.Clock = clock
	r := NewManager(cfg)
	r.Restore(m.Export())
	if r.SortKeysAt(clock.Now(), refs)[0].Starved {
		t.Fatal("bob reads starved after export and restore: the start was lost")
	}
}

// TestHandlesOutliveRestore: handles taken before a Restore — of tenants
// the export holds, of one it lacks, and of one not registered at all —
// price refs exactly as the names do afterwards, starvation included, and
// taking them registered nothing.
func TestHandlesOutliveRestore(t *testing.T) {
	cfg := Config{HalfLife: time.Hour, StarvationWindow: time.Minute}
	src, clock := newTestManager(cfg)
	submitted := clock.Now()
	src.RecordUsage("atlas", "cern", 900)
	src.RecordUsage("cms", "fnal", 100)
	clock.Advance(time.Minute)
	src.ObserveStart(src.Tenant("cms"), clock.Now())
	src.ObserveStart(src.Tenant("lhcb"), clock.Now())

	// The manager restored into holds other standings, and handles on them.
	cfg.Clock = clock
	dst := NewManager(cfg)
	dst.RecordUsage("cms", "cern", 5000)
	dst.RecordUsage("alice", "", 300) // in no export
	dst.ObserveStart(dst.Tenant("atlas"), clock.Now())
	owners := []string{"atlas", "cms", "lhcb", "alice", "ghost", ""}
	handles := make([]*Tenant, len(owners))
	before, err := json.Marshal(dst.Export())
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range owners {
		handles[i] = dst.Tenant(o)
	}
	after, err := json.Marshal(dst.Export())
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("resolving handles changed the export:\n%s\n%s", before, after)
	}

	dst.Restore(src.Export())
	// Half a minute on, atlas and the tenants src never served have
	// starved and cms and lhcb have not; two minutes on, all have.
	for _, at := range []time.Duration{30 * time.Second, 2 * time.Minute} {
		clock.Advance(at)
		byName := make([]JobRef, len(owners))
		byHandle := make([]JobRef, len(owners))
		for i, o := range owners {
			byName[i] = JobRef{Owner: o, Submitted: submitted, Seq: i}
			byHandle[i] = JobRef{Owner: o, Tenant: handles[i], Submitted: submitted, Seq: i}
		}
		want := src.SortKeysAt(clock.Now(), byName)
		if at == 30*time.Second && (!want[0].Starved || want[1].Starved) {
			t.Fatalf("source keys %v: want atlas starved and cms not", want)
		}
		if got := dst.SortKeysAt(clock.Now(), byName); !slices.Equal(got, want) {
			t.Fatalf("+%v: restored keys by name = %v, source's = %v", at, got, want)
		}
		if got := dst.SortKeysAt(clock.Now(), byHandle); !slices.Equal(got, want) {
			t.Fatalf("+%v: keys through handles taken before the restore = %v, by name = %v", at, got, want)
		}
	}
}
