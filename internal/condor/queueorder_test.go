package condor

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
)

// The incremental negotiation stream (per-owner FIFO buckets merged by a
// cursor heap) must yield exactly the order the full re-sort of
// oracle_test.go produces — under the fair-share policy (effective priority, the
// starvation guard's FIFO phase, static priority, submit time, id) and
// under the static policy (priority desc, id asc). The scenarios below
// churn the queue through every mutation that can stale an entry:
// submissions, matches, priority refiles, and starvation promotions.

func orderIDs(js []*job) []int {
	ids := make([]int, len(js))
	for i, j := range js {
		ids[i] = j.id
	}
	return ids
}

func checkOrderParity(t *testing.T, p *Pool, label string) {
	t.Helper()
	stream := orderIDs(p.idleOrdered())
	legacy := orderIDs(p.idleSorted())
	if len(stream) != len(legacy) {
		t.Fatalf("%s: stream yields %d jobs, legacy sort %d\nstream: %v\nlegacy: %v",
			label, len(stream), len(legacy), stream, legacy)
	}
	for i := range stream {
		if stream[i] != legacy[i] {
			t.Fatalf("%s: order diverges at %d\nstream: %v\nlegacy: %v", label, i, stream, legacy)
		}
	}
	// What a status query reports, counted off the stream up to the job, is
	// what the whole listing reports, and both are the order's.
	for _, info := range mustJobs(t, p) {
		want := slices.Index(legacy, info.ID) + 1
		if got := mustJob(t, p, info.ID).QueuePosition; got != info.QueuePosition || got != want {
			t.Fatalf("%s: job %d (%v): Job reports position %d, Jobs %d, the order %d", label, info.ID, info.Status, got, info.QueuePosition, want)
		}
	}
}

// TestJobStatusQueryFollowsItsPlace: a status query on the job at the head
// of the queue costs the same allocations behind 10 queued jobs as behind
// 10 000, under either policy — it counts its way down the negotiation
// stream to the job instead of mapping every idle job's position.
func TestJobStatusQueryFollowsItsPlace(t *testing.T) {
	for _, fair := range []bool{false, true} {
		allocs := func(queued int) float64 {
			g := simgrid.NewGrid(time.Second, 1)
			p := NewPool("s", g, g.AddSite("s")) // no machines: every job waits
			if fair {
				p.SetFairShare(fairshare.NewManager(fairshare.Config{Clock: g.Engine.Clock()}))
			}
			for i := 0; i < queued; i++ {
				mustSubmit(t, p, jobAd([]string{"alice", "bob"}[i%2], 100, 0))
			}
			if pos := mustJob(t, p, 1).QueuePosition; pos != 1 {
				t.Fatalf("fair=%v: job 1 at position %d, want the head", fair, pos)
			}
			return testing.AllocsPerRun(50, func() { mustJob(t, p, 1) })
		}
		if few, many := allocs(10), allocs(10_000); few != many {
			t.Errorf("fair=%v: Job on the head of the queue allocates %v times behind 10 jobs, %v behind 10 000", fair, few, many)
		}
	}
}

// restoreCapture is one mid-run crash-recovery check of the order scenario:
// at instant at the pool is exported with leases of ttl and restored into
// a fresh pool on a fresh grid standing at the same instant.
type restoreCapture struct {
	at  time.Duration
	ttl time.Duration
}

// orderCaptures takes one capture with live leases (running jobs re-bind)
// and one with leases already expired (running jobs requeue idle).
var orderCaptures = []restoreCapture{{150 * time.Second, testTTL}, {290 * time.Second, 0}}

func runOrderParityScenario(t *testing.T, seed int64, static bool, captures []restoreCapture) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// build makes the scenario's deployment: few machines for many jobs, so
	// a deep backlog keeps a large idle queue alive across many passes.
	build := func() (*simgrid.Grid, *Pool, *fairshare.Manager) {
		g := simgrid.NewGrid(time.Second, 1)
		site := g.AddSite("s")
		pool := NewPool("s", g, site)
		for i := 0; i < 3; i++ {
			pool.AddMachine(site.AddNode(g.Engine, fmt.Sprintf("n%d", i), 1, simgrid.ConstantLoad(0.25)), nil)
		}
		if static {
			return g, pool, nil
		}
		mgr := fairshare.NewManager(fairshare.Config{
			Clock:            g.Engine.Clock(),
			HalfLife:         time.Minute,
			StarvationWindow: 40 * time.Second, // small: force phase-a promotions
		})
		pool.SetFairShare(mgr)
		return g, pool, mgr
	}
	g, pool, mgr := build()

	owners := []string{"alice", "bob", "carol", "dave", "erin"}
	var ids []int
	for i := 0; i < 80; i++ {
		at := time.Duration(rng.Intn(240)) * time.Second
		owner := owners[rng.Intn(len(owners))]
		prio := rng.Intn(4)
		cpu := float64(20 + rng.Intn(200))
		g.Engine.Schedule(at, func(time.Time) {
			ad := classad.New().Set(AttrOwner, owner).Set(AttrCpuSeconds, cpu).Set(AttrPriority, prio)
			id, err := pool.Submit(ad)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			ids = append(ids, id)
		})
	}
	// Random priority churn re-files queue entries mid-life.
	for k := 0; k < 30; k++ {
		at := time.Duration(30+rng.Intn(300)) * time.Second
		newPrio := rng.Intn(5)
		pick := rng.Intn(80)
		g.Engine.Schedule(at, func(time.Time) {
			if pick < len(ids) {
				if err := pool.SetPriority(ids[pick], newPrio); err != nil {
					t.Errorf("setpriority: %v", err)
				}
			}
		})
	}
	for s := 10; s <= 400; s += 10 {
		s := s
		g.Engine.Schedule(time.Duration(s)*time.Second, func(time.Time) {
			checkOrderParity(t, pool, fmt.Sprintf("seed %d t=%ds", seed, s))
		})
	}
	var ran time.Duration
	for _, c := range captures {
		g.Engine.RunFor(c.at - ran)
		ran = c.at
		label := fmt.Sprintf("seed %d restored at %v (ttl %v)", seed, c.at, c.ttl)
		// The job at the tail of the order is re-filed just before the
		// capture, so every capture holds a refile.
		live := mustJobs(t, pool)
		if tail := tailOfQueue(live); tail == nil {
			t.Fatalf("%s: no idle job to re-file; the capture is vacuous", label)
		} else if err := pool.SetPriority(tail.ID, tail.Priority+1); err != nil {
			t.Fatal(err)
		}
		live = mustJobs(t, pool)

		g2, pool2, mgr2 := build()
		g2.Engine.RunFor(c.at)
		if mgr2 != nil {
			mgr2.Restore(mgr.Export())
		}
		if err := pool2.Restore(pool.Export(c.ttl)); err != nil {
			t.Fatal(err)
		}
		checkOrderParity(t, pool2, label)
		compareRestoredQueue(t, label, live, mustJobs(t, pool2), c.ttl > 0, static)
	}
	g.Engine.RunFor(420*time.Second - ran)
	checkOrderParity(t, pool, fmt.Sprintf("seed %d final", seed))
}

func mustJobs(t *testing.T, p *Pool) []JobInfo {
	t.Helper()
	jobs, err := p.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// tailOfQueue returns the idle job with the last queue position, or nil.
func tailOfQueue(jobs []JobInfo) *JobInfo {
	var tail *JobInfo
	for i := range jobs {
		if j := &jobs[i]; j.Status == StatusIdle && (tail == nil || j.QueuePosition > tail.QueuePosition) {
			tail = j
		}
	}
	return tail
}

// compareRestoredQueue holds a restored pool's queue positions to the live
// pool's at the capture instant. With leases live every job keeps its
// status and its position. With leases expired the jobs that were running
// requeue idle — at least one must — and take a place in the order, while
// the jobs that were already idle stay idle and, under the static policy,
// keep their order among themselves (under fair share a requeued job may
// take over its owner's starvation pick, which moves the previous pick).
func compareRestoredQueue(t *testing.T, label string, live, restored []JobInfo, leasesLive, static bool) {
	t.Helper()
	if len(live) != len(restored) {
		t.Fatalf("%s: %d jobs live, %d restored", label, len(live), len(restored))
	}
	var liveIdle, restoredIdle []JobInfo // the jobs idle on the live side, as each side sees them
	requeued := 0
	for i, l := range live {
		r := restored[i]
		switch {
		case l.ID != r.ID:
			t.Fatalf("%s: job %d restored as %d", label, l.ID, r.ID)
		case leasesLive:
			if l.Status != r.Status || l.QueuePosition != r.QueuePosition {
				t.Errorf("%s: job %d is %v at position %d live, %v at position %d restored",
					label, l.ID, l.Status, l.QueuePosition, r.Status, r.QueuePosition)
			}
		case l.Status == StatusRunning && r.Status == StatusIdle && r.QueuePosition > 0:
			requeued++
		case l.Status == StatusIdle:
			if r.Status != StatusIdle {
				t.Fatalf("%s: idle job %d restored as %v", label, l.ID, r.Status)
			}
			liveIdle, restoredIdle = append(liveIdle, l), append(restoredIdle, r)
		}
	}
	if leasesLive {
		return
	}
	if requeued == 0 {
		t.Fatalf("%s: no running job requeued by an expired lease; the capture is vacuous", label)
	}
	if !static {
		return
	}
	byPosition := func(jobs []JobInfo) []int {
		slices.SortFunc(jobs, func(a, b JobInfo) int { return cmp.Compare(a.QueuePosition, b.QueuePosition) })
		ids := make([]int, len(jobs))
		for i, j := range jobs {
			ids[i] = j.ID
		}
		return ids
	}
	if a, b := byPosition(liveIdle), byPosition(restoredIdle); !slices.Equal(a, b) {
		t.Errorf("%s: idle jobs reordered among themselves\n live:     %v\n restored: %v", label, a, b)
	}
}

func TestNegotiationOrderMatchesLegacySortFairShare(t *testing.T) {
	for _, seed := range []int64{1, 33, 512} {
		runOrderParityScenario(t, seed, false, orderCaptures)
	}
}

func TestNegotiationOrderMatchesLegacySortStatic(t *testing.T) {
	for _, seed := range []int64{2, 99} {
		runOrderParityScenario(t, seed, true, orderCaptures)
	}
}
