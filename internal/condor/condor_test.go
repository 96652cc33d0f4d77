package condor

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/classad"
	"repro/internal/simgrid"
)

// testPool builds a grid with one site of n idle Mips-1 nodes and a pool.
func testPool(t *testing.T, n int) (*simgrid.Grid, *Pool) {
	t.Helper()
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("siteA")
	p := NewPool("poolA", g, site)
	for i := 0; i < n; i++ {
		node := site.AddNode(g.Engine, nodeName(i), 1.0, simgrid.IdleLoad())
		p.AddMachine(node, nil)
	}
	return g, p
}

func nodeName(i int) string { return string(rune('a'+i)) + "-node" }

// jobAd builds a minimal job ad.
func jobAd(owner string, cpu float64, prio int) *classad.Ad {
	return classad.New().
		Set(AttrOwner, owner).
		Set(AttrCmd, "primes").
		Set(AttrCpuSeconds, cpu).
		Set(AttrPriority, prio)
}

// byName looks attribute name up in ad by a name keyed at the call.
func byName(ad *classad.Ad, name string) classad.Value { return ad.Get(classad.NameOf(name)) }

func mustSubmit(t *testing.T, p *Pool, ad *classad.Ad) int {
	t.Helper()
	id, err := p.Submit(ad)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return id
}

func mustJob(t *testing.T, p *Pool, id int) JobInfo {
	t.Helper()
	info, err := p.Job(id)
	if err != nil {
		t.Fatalf("Job(%d): %v", id, err)
	}
	return info
}

func TestSubmitValidation(t *testing.T) {
	_, p := testPool(t, 1)
	if _, err := p.Submit(nil); err == nil {
		t.Error("nil ad accepted")
	}
	if _, err := p.Submit(classad.New().Set(AttrOwner, "x")); err == nil {
		t.Error("ad without CpuSeconds accepted")
	}
	if _, err := p.Submit(classad.New().Set(AttrCpuSeconds, -5)); err == nil {
		t.Error("negative CpuSeconds accepted")
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	g, p := testPool(t, 1)
	id := mustSubmit(t, p, jobAd("alice", 30, 0))
	info := mustJob(t, p, id)
	if info.Status != StatusIdle || info.QueuePosition != 1 {
		t.Fatalf("fresh job = %+v", info)
	}
	g.Engine.RunFor(time.Second) // negotiation places the job
	if got := mustJob(t, p, id); got.Status != StatusRunning || got.Node == "" {
		t.Fatalf("after negotiation = %+v", got)
	}
	g.Engine.RunFor(35 * time.Second)
	final := mustJob(t, p, id)
	if final.Status != StatusCompleted {
		t.Fatalf("final = %+v", final)
	}
	if final.Progress != 1 || math.Abs(final.CPUSeconds-30) > 1e-9 {
		t.Fatalf("accounting = %+v", final)
	}
	if final.CompletionTime.Sub(final.SubmitTime) > 35*time.Second {
		t.Fatalf("completion took %v", final.CompletionTime.Sub(final.SubmitTime))
	}
	if final.Elapsed != final.CompletionTime.Sub(final.SubmitTime) {
		t.Fatalf("Elapsed %v != completion-submit %v", final.Elapsed, final.CompletionTime.Sub(final.SubmitTime))
	}
}

func TestPriorityOrdering(t *testing.T) {
	g, p := testPool(t, 1) // single machine: jobs run one at a time
	low := mustSubmit(t, p, jobAd("alice", 10, 1))
	high := mustSubmit(t, p, jobAd("bob", 10, 9))
	g.Engine.RunFor(time.Second)
	if got := mustJob(t, p, high); got.Status != StatusRunning {
		t.Fatalf("high-priority job = %v", got.Status)
	}
	if got := mustJob(t, p, low); got.Status != StatusIdle {
		t.Fatalf("low-priority job = %v", got.Status)
	}
	// FIFO within a priority level.
	first := mustSubmit(t, p, jobAd("c", 10, 1))
	second := mustSubmit(t, p, jobAd("d", 10, 1))
	g.Engine.RunFor(12 * time.Second) // high finishes, one of the prio-1 jobs starts
	running := 0
	for _, id := range []int{low, first, second} {
		if mustJob(t, p, id).Status == StatusRunning {
			running++
			if id != low {
				t.Fatalf("job %d ran before the older job %d", id, low)
			}
		}
	}
	if running != 1 {
		t.Fatalf("%d prio-1 jobs running, want 1", running)
	}
}

func TestQueuePositionsReflectPriority(t *testing.T) {
	_, p := testPool(t, 0) // no machines: everything stays queued
	a := mustSubmit(t, p, jobAd("a", 10, 1))
	b := mustSubmit(t, p, jobAd("b", 10, 5))
	c := mustSubmit(t, p, jobAd("c", 10, 1))
	if got := mustJob(t, p, b).QueuePosition; got != 1 {
		t.Errorf("high-prio position = %d", got)
	}
	if got := mustJob(t, p, a).QueuePosition; got != 2 {
		t.Errorf("older prio-1 position = %d", got)
	}
	if got := mustJob(t, p, c).QueuePosition; got != 3 {
		t.Errorf("newer prio-1 position = %d", got)
	}
}

func TestQueueAbove(t *testing.T) {
	_, p := testPool(t, 0)
	mustSubmit(t, p, jobAd("a", 10, 1))
	b := mustSubmit(t, p, jobAd("b", 20, 5))
	c := mustSubmit(t, p, jobAd("c", 10, 3))
	above, err := p.QueueAbove(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(above) != 1 || above[0].ID != b {
		t.Fatalf("QueueAbove = %+v", above)
	}
	if _, err := p.QueueAbove(99); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("QueueAbove(99) = %v", err)
	}
}

func TestSuspendResume(t *testing.T) {
	g, p := testPool(t, 1)
	id := mustSubmit(t, p, jobAd("alice", 50, 0))
	g.Engine.RunFor(10 * time.Second)
	if err := p.Suspend(id); err != nil {
		t.Fatal(err)
	}
	atSuspend := mustJob(t, p, id)
	if atSuspend.Status != StatusSuspended {
		t.Fatalf("status = %v", atSuspend.Status)
	}
	g.Engine.RunFor(30 * time.Second)
	frozen := mustJob(t, p, id)
	if frozen.CPUSeconds != atSuspend.CPUSeconds {
		t.Fatalf("suspended job progressed: %v → %v", atSuspend.CPUSeconds, frozen.CPUSeconds)
	}
	if err := p.Resume(id); err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(60 * time.Second)
	if got := mustJob(t, p, id); got.Status != StatusCompleted {
		t.Fatalf("after resume = %+v", got)
	}
	// Double suspend/resume on wrong states error.
	if err := p.Suspend(id); err == nil {
		t.Error("suspending a completed job succeeded")
	}
	if err := p.Resume(id); err == nil {
		t.Error("resuming a completed job succeeded")
	}
}

func TestRemove(t *testing.T) {
	g, p := testPool(t, 1)
	id := mustSubmit(t, p, jobAd("alice", 50, 0))
	g.Engine.RunFor(5 * time.Second)
	if err := p.Remove(id); err != nil {
		t.Fatal(err)
	}
	info := mustJob(t, p, id)
	if info.Status != StatusRemoved {
		t.Fatalf("status = %v", info.Status)
	}
	g.Engine.RunFor(60 * time.Second)
	if got := mustJob(t, p, id); got.Status != StatusRemoved {
		t.Fatalf("removed job changed state to %v", got.Status)
	}
	if err := p.Remove(id); err == nil {
		t.Error("double remove succeeded")
	}
	// Removing an idle job dequeues it.
	idle := mustSubmit(t, p, jobAd("bob", 50, 0))
	if err := p.Remove(idle); err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(time.Second)
	if got := mustJob(t, p, idle); got.Status != StatusRemoved {
		t.Fatalf("idle remove = %v", got.Status)
	}
}

func TestSetPriorityReordersQueue(t *testing.T) {
	_, p := testPool(t, 0)
	a := mustSubmit(t, p, jobAd("a", 10, 1))
	b := mustSubmit(t, p, jobAd("b", 10, 1))
	if err := p.SetPriority(b, 10); err != nil {
		t.Fatal(err)
	}
	if got := mustJob(t, p, b).QueuePosition; got != 1 {
		t.Fatalf("boosted job position = %d", got)
	}
	if got := mustJob(t, p, a).QueuePosition; got != 2 {
		t.Fatalf("other job position = %d", got)
	}
	if got := mustJob(t, p, b).Priority; got != 10 {
		t.Fatalf("priority = %d", got)
	}
}

func TestWallClockExcludesQueueTime(t *testing.T) {
	g, p := testPool(t, 1)
	first := mustSubmit(t, p, jobAd("a", 20, 5))
	second := mustSubmit(t, p, jobAd("b", 10, 0))
	g.Engine.RunFor(25 * time.Second) // first runs 20s, then second starts
	_ = first
	info := mustJob(t, p, second)
	if info.Status != StatusRunning {
		t.Fatalf("second job = %v", info.Status)
	}
	// Second job waited ~21s in queue; its wall-clock must reflect only
	// execution time (~4s), while Elapsed includes the wait.
	if got := info.WallClock.Seconds(); got > 5 {
		t.Fatalf("wall clock = %vs includes queue time", got)
	}
	if got := info.Elapsed.Seconds(); got < 24 {
		t.Fatalf("elapsed = %vs, want ~25s", got)
	}
}

func TestRequirementsRespected(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("s")
	p := NewPool("p", g, site)
	small := site.AddNode(g.Engine, "small", 1, simgrid.IdleLoad())
	big := site.AddNode(g.Engine, "big", 1, simgrid.IdleLoad())
	p.AddMachine(small, classad.New().Set("Memory", 512))
	p.AddMachine(big, classad.New().Set("Memory", 4096))
	ad := jobAd("alice", 10, 0)
	ad.MustSetExpr(AttrRequirements, "TARGET.Memory >= 2048")
	id := mustSubmit(t, p, ad)
	g.Engine.RunFor(time.Second)
	info := mustJob(t, p, id)
	if info.Node != "big" {
		t.Fatalf("job placed on %q, want big", info.Node)
	}
}

func TestUnsatisfiableRequirementsStayIdle(t *testing.T) {
	g, p := testPool(t, 2)
	ad := jobAd("alice", 10, 0)
	ad.MustSetExpr(AttrRequirements, "TARGET.Memory >= 1")
	id := mustSubmit(t, p, ad) // machines advertise no Memory attribute
	g.Engine.RunFor(10 * time.Second)
	if got := mustJob(t, p, id); got.Status != StatusIdle {
		t.Fatalf("unmatchable job = %v", got.Status)
	}
}

func TestRankPrefersFasterMachine(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("s")
	p := NewPool("p", g, site)
	slow := site.AddNode(g.Engine, "slow", 1.0, simgrid.IdleLoad())
	fast := site.AddNode(g.Engine, "fast", 2.0, simgrid.IdleLoad())
	p.AddMachine(slow, nil)
	p.AddMachine(fast, nil)
	ad := jobAd("alice", 10, 0)
	ad.MustSetExpr(AttrRank, "TARGET.Mips")
	id := mustSubmit(t, p, ad)
	g.Engine.RunFor(time.Second)
	if got := mustJob(t, p, id); got.Node != "fast" {
		t.Fatalf("ranked job on %q, want fast", got.Node)
	}
}

func TestEventsEmittedInOrder(t *testing.T) {
	g, p := testPool(t, 1)
	var events []Event
	p.Subscribe(func(e Event) { events = append(events, e) })
	id := mustSubmit(t, p, jobAd("alice", 5, 0))
	g.Engine.RunFor(10 * time.Second)
	var got []Status
	for _, e := range events {
		if e.JobID == id {
			got = append(got, e.To)
		}
	}
	want := []Status{StatusIdle, StatusRunning, StatusCompleted}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
}

func TestOutputFileProduced(t *testing.T) {
	g, p := testPool(t, 1)
	ad := jobAd("alice", 5, 0)
	ad.Set(AttrOutputFile, "result.root")
	ad.Set(AttrOutputMB, 42.0)
	mustSubmit(t, p, ad)
	g.Engine.RunFor(10 * time.Second)
	f, ok := g.Site("siteA").Storage().Get("result.root")
	if !ok || f.SizeMB != 42 {
		t.Fatalf("output file = %+v, %v", f, ok)
	}
}

func TestFailureInjection(t *testing.T) {
	g, p := testPool(t, 1)
	ad := jobAd("alice", 100, 0)
	ad.Set(AttrFailAfter, 10.0)
	id := mustSubmit(t, p, ad)
	g.Engine.RunFor(30 * time.Second)
	info := mustJob(t, p, id)
	if info.Status != StatusFailed {
		t.Fatalf("status = %v, want failed", info.Status)
	}
	if info.CPUSeconds < 10 || info.CPUSeconds > 12 {
		t.Fatalf("failed at %v cpu-seconds", info.CPUSeconds)
	}
}

func TestPoolFailAndRecover(t *testing.T) {
	g, p := testPool(t, 1)
	id := mustSubmit(t, p, jobAd("alice", 60, 0))
	g.Engine.RunFor(10 * time.Second)
	p.Fail()
	if p.Healthy() {
		t.Fatal("failed pool reports healthy")
	}
	if _, err := p.Job(id); !errors.Is(err, ErrPoolDown) {
		t.Fatalf("Job on failed pool = %v", err)
	}
	if _, err := p.Jobs(); !errors.Is(err, ErrPoolDown) {
		t.Fatalf("Jobs on failed pool = %v", err)
	}
	if _, err := p.Submit(jobAd("x", 1, 0)); !errors.Is(err, ErrPoolDown) {
		t.Fatalf("Submit on failed pool = %v", err)
	}
	if err := p.Suspend(id); !errors.Is(err, ErrPoolDown) {
		t.Fatalf("Suspend on failed pool = %v", err)
	}
	g.Engine.RunFor(30 * time.Second)
	p.Recover()
	// Job did not progress while the service was down.
	info := mustJob(t, p, id)
	if info.CPUSeconds > 12 {
		t.Fatalf("job progressed during outage: %v cpu-s", info.CPUSeconds)
	}
	g.Engine.RunFor(60 * time.Second)
	if got := mustJob(t, p, id); got.Status != StatusCompleted {
		t.Fatalf("after recovery = %v", got.Status)
	}
}

func TestCheckpointMigration(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	siteA := g.AddSite("a")
	siteB := g.AddSite("b")
	poolA := NewPool("poolA", g, siteA)
	poolB := NewPool("poolB", g, siteB)
	poolA.AddMachine(siteA.AddNode(g.Engine, "a1", 1, simgrid.IdleLoad()), nil)
	poolB.AddMachine(siteB.AddNode(g.Engine, "b1", 1, simgrid.IdleLoad()), nil)

	ad := jobAd("alice", 100, 0)
	ad.Set(AttrCheckpoint, true)
	id, err := poolA.Submit(ad)
	if err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(40 * time.Second)
	cpu, err := poolA.Checkpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	if cpu < 38 || cpu > 40 {
		t.Fatalf("checkpoint = %v cpu-s", cpu)
	}
	if err := poolA.Remove(id); err != nil {
		t.Fatal(err)
	}
	id2, err := poolB.SubmitCheckpointed(ad, cpu)
	if err != nil {
		t.Fatal(err)
	}
	start := g.Engine.Now()
	if err := g.Engine.RunUntil(func() bool {
		info, err := poolB.Job(id2)
		return err == nil && info.Status == StatusCompleted
	}, 120*time.Second); err != nil {
		t.Fatal(err)
	}
	// Only the remaining ~60s of work should have run at B.
	migrated := g.Engine.Now().Sub(start)
	if migrated > 65*time.Second {
		t.Fatalf("migrated job took %v, want ~61s", migrated)
	}
	info, _ := poolB.Job(id2)
	if info.Progress != 1 {
		t.Fatalf("migrated progress = %v", info.Progress)
	}
}

func TestNonCheckpointableRestartsFromZero(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("a")
	p := NewPool("p", g, site)
	p.AddMachine(site.AddNode(g.Engine, "n", 1, simgrid.IdleLoad()), nil)
	ad := jobAd("alice", 50, 0) // Checkpointable unset
	id, err := p.SubmitCheckpointed(ad, 40)
	if err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(20 * time.Second)
	info := mustJob(t, p, id)
	if info.Status != StatusRunning || info.CPUSeconds > 20 {
		t.Fatalf("non-checkpointable restart = %+v", info)
	}
	if _, err := p.SubmitCheckpointed(ad, -1); err == nil {
		t.Fatal("negative checkpoint accepted")
	}
}

// TestCheckpointedSubmitBesideRunningEngine submits checkpointed jobs while
// the engine runs on another goroutine, as gae-server's does: the two
// share one lock, as a deployment's callers share its owner's, and the
// engine gives it up after every second of simulated time. A job the
// engine could start between being queued and getting its checkpoint
// would run its full work on top of the checkpoint: 1 600 CPU-seconds for
// a 1 000-second job.
func TestCheckpointedSubmitBesideRunningEngine(t *testing.T) {
	const jobs, machines, need, done = 20000, 64, 1000.0, 600.0
	g, p := testPool(t, machines)
	var owner sync.Mutex
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				owner.Lock()
				g.Engine.RunFor(time.Second)
				owner.Unlock()
			}
		}
	}()
	for i := 0; i < jobs; i++ {
		owner.Lock()
		_, err := p.SubmitCheckpointed(jobAd("alice", need, 0).Set(AttrCheckpoint, true), done)
		owner.Unlock()
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	<-stopped
	g.Engine.RunFor(time.Duration(jobs/machines+1) * time.Duration(need-done) * time.Second)
	wrong := 0
	for _, info := range mustJobs(t, p) {
		if info.Status != StatusCompleted || info.CPUSeconds != need {
			if wrong++; wrong <= 3 {
				t.Errorf("job %d: %v with %v CPU-seconds, want completed with %v", info.ID, info.Status, info.CPUSeconds, need)
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d jobs did not complete with exactly their own work", wrong, jobs)
	}
}

func TestCheckpointCoversAllWork(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("a")
	p := NewPool("p", g, site)
	p.AddMachine(site.AddNode(g.Engine, "n", 1, simgrid.IdleLoad()), nil)
	ad := jobAd("alice", 50, 0)
	ad.Set(AttrCheckpoint, true)
	id, err := p.SubmitCheckpointed(ad, 50)
	if err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(time.Second)
	if got := mustJob(t, p, id); got.Status != StatusCompleted {
		t.Fatalf("fully-checkpointed job = %v", got.Status)
	}
}

func TestFlocking(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	siteA := g.AddSite("a")
	siteB := g.AddSite("b")
	poolA := NewPool("poolA", g, siteA)
	poolB := NewPool("poolB", g, siteB)
	// Pool A has no machines at all; B has one.
	poolB.AddMachine(siteB.AddNode(g.Engine, "b1", 1, simgrid.IdleLoad()), nil)
	poolA.EnableFlocking(poolB)
	id, err := poolA.Submit(jobAd("alice", 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(15 * time.Second)
	info := mustJob(t, poolA, id)
	if info.Status != StatusCompleted {
		t.Fatalf("flocked job = %v", info.Status)
	}
	if info.Node != "b1" {
		t.Fatalf("flocked job ran on %q", info.Node)
	}
}

func TestJobsSnapshotOrdered(t *testing.T) {
	_, p := testPool(t, 0)
	for i := 0; i < 5; i++ {
		mustSubmit(t, p, jobAd("u", 10, i))
	}
	jobs, err := p.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 5 {
		t.Fatalf("len = %d", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != i+1 {
			t.Fatalf("jobs[%d].ID = %d", i, j.ID)
		}
	}
}

func TestRemainingEstimate(t *testing.T) {
	g, p := testPool(t, 1)
	ad := jobAd("alice", 100, 0)
	ad.Set(AttrEstimate, 100.0)
	id := mustSubmit(t, p, ad)
	g.Engine.RunFor(40 * time.Second)
	info := mustJob(t, p, id)
	if math.Abs(info.RemainingEstimate-60) > 2 {
		t.Fatalf("remaining = %v, want ~60", info.RemainingEstimate)
	}
	g.Engine.RunFor(70 * time.Second)
	if got := mustJob(t, p, id).RemainingEstimate; got != 0 {
		t.Fatalf("remaining after completion = %v", got)
	}
}

func TestErrNoSuchJob(t *testing.T) {
	_, p := testPool(t, 0)
	if _, err := p.Job(42); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("Job(42) = %v", err)
	}
	if err := p.Suspend(42); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("Suspend(42) = %v", err)
	}
}

func TestStatusStringsAndTerminal(t *testing.T) {
	cases := map[Status]string{
		StatusIdle: "idle", StatusRunning: "running", StatusSuspended: "suspended",
		StatusCompleted: "completed", StatusFailed: "failed", StatusRemoved: "removed",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if StatusIdle.Terminal() || StatusRunning.Terminal() || StatusSuspended.Terminal() {
		t.Error("non-terminal state reports terminal")
	}
	if !StatusCompleted.Terminal() || !StatusFailed.Terminal() || !StatusRemoved.Terminal() {
		t.Error("terminal state reports non-terminal")
	}
}

func TestManyJobsManyMachinesThroughput(t *testing.T) {
	g, p := testPool(t, 4)
	const n = 16
	ids := make([]int, n)
	for i := range ids {
		ids[i] = mustSubmit(t, p, jobAd("u", 10, 0))
	}
	// 16 jobs × 10s on 4 machines = 40s serial; allow negotiation slack.
	if err := g.Engine.RunUntil(func() bool {
		for _, id := range ids {
			info, err := p.Job(id)
			if err != nil || info.Status != StatusCompleted {
				return false
			}
		}
		return true
	}, 60*time.Second); err != nil {
		t.Fatal(err)
	}
}

// Property: for any running job, accumulated wall-clock never exceeds the
// time since its start, and CPU-seconds never exceed wall-clock × Mips.
func TestQuickWallClockInvariants(t *testing.T) {
	f := func(loadPct, runSecs uint8) bool {
		load := float64(loadPct%95) / 100
		run := int(runSecs%120) + 10
		g := simgrid.NewGrid(time.Second, 1)
		site := g.AddSite("s")
		p := NewPool("p", g, site)
		p.AddMachine(site.AddNode(g.Engine, "n", 1.0, simgrid.ConstantLoad(load)), nil)
		id, err := p.Submit(jobAd("u", 1e6, 0))
		if err != nil {
			return false
		}
		g.Engine.RunFor(time.Duration(run) * time.Second)
		info, err := p.Job(id)
		if err != nil {
			return false
		}
		if info.StartTime.IsZero() {
			return true
		}
		// One tick of slack: the job receives its first tick's CPU in the
		// same engine step that stamps its start time.
		sinceStart := g.Engine.Now().Sub(info.StartTime).Seconds() + 1
		if info.WallClock.Seconds() > sinceStart+1e-6 {
			return false
		}
		return info.CPUSeconds <= info.WallClock.Seconds()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the negotiator never places two jobs on one machine.
func TestQuickOneJobPerMachine(t *testing.T) {
	f := func(nJobs, nMachines uint8) bool {
		j := int(nJobs%12) + 1
		m := int(nMachines%4) + 1
		g := simgrid.NewGrid(time.Second, 1)
		site := g.AddSite("s")
		p := NewPool("p", g, site)
		nodes := make([]*simgrid.Node, m)
		for i := 0; i < m; i++ {
			nodes[i] = site.AddNode(g.Engine, nodeName(i), 1.0, simgrid.IdleLoad())
			p.AddMachine(nodes[i], nil)
		}
		for i := 0; i < j; i++ {
			if _, err := p.Submit(jobAd("u", 1000, i%3)); err != nil {
				return false
			}
		}
		g.Engine.RunFor(5 * time.Second)
		for _, n := range nodes {
			if n.TaskCount() > 1 {
				return false
			}
		}
		jobs, err := p.Jobs()
		if err != nil {
			return false
		}
		running := 0
		for _, info := range jobs {
			if info.Status == StatusRunning {
				running++
			}
		}
		want := j
		if m < j {
			want = m
		}
		return running == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
