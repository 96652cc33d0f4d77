package steering

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/estimator"
	"repro/internal/jobmon"
	"repro/internal/monalisa"
	"repro/internal/quota"
	"repro/internal/scheduler"
	"repro/internal/simgrid"
)

// fixture builds a two-site grid (siteA, siteB), both initially idle, with
// scheduler, jobmon, monalisa and steering wired the way internal/core
// assembles them.
type fixture struct {
	grid  *simgrid.Grid
	repo  *monalisa.Repository
	sched *scheduler.Scheduler
	mon   *jobmon.Service
	svc   *Service
	pools map[string]*condor.Pool
	nodes map[string]*simgrid.Node
	quota *quota.Service
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	return newLoadedFixture(t, nil)
}

// newLoadedFixture is newFixture with the named sites' nodes under the
// given loads (the others idle).
func newLoadedFixture(t *testing.T, loads map[string]simgrid.Load) *fixture {
	t.Helper()
	g := simgrid.NewGrid(time.Second, 1)
	repo := monalisa.NewRepository()
	f := &fixture{
		grid: g, repo: repo,
		pools: map[string]*condor.Pool{},
		nodes: map[string]*simgrid.Node{},
		quota: quota.NewService(),
	}
	for _, name := range []string{"siteA", "siteB"} {
		site := g.AddSite(name)
		pool := condor.NewPool(name, g, site)
		node := site.AddNode(g.Engine, name+"-n1", 1.0, loads[name])
		pool.AddMachine(node, nil)
		f.pools[name] = pool
		f.nodes[name] = node
	}
	g.Network.Connect("siteA", "siteB", simgrid.Link{BandwidthMBps: 10})
	monalisa.NewFarmMonitor(repo, g, 5*time.Second)
	f.quota.SetRate("siteA", quota.Rate{CPUSecond: 0.10})
	f.quota.SetRate("siteB", quota.Rate{CPUSecond: 0.02})

	f.sched = scheduler.New(scheduler.Config{Grid: g, Monitor: repo})
	for name, pool := range f.pools {
		f.sched.RegisterSite(name, &scheduler.SiteServices{
			Pool:    pool,
			Runtime: estimator.NewRuntimeEstimator(estimator.NewHistory(0)),
		})
	}
	f.mon = jobmon.NewService(g, repo)
	for _, pool := range f.pools {
		f.mon.Watch(pool)
	}
	f.svc = New(Config{Grid: g, Scheduler: f.sched, Monitor: f.mon, Quota: f.quota})
	f.svc.PollInterval = 5 * time.Second
	return f
}

// loadedAt2s is a load that develops to level two seconds in, once the
// job has started.
func loadedAt2s(level float64) simgrid.Load {
	epoch := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	return simgrid.StepLoad(epoch, []time.Duration{2 * time.Second}, []float64{0, level})
}

// startsAt fails the test unless the task was placed at site: the site
// the test loads.
func startsAt(t *testing.T, cp *scheduler.ConcretePlan, id, site string) scheduler.Assignment {
	t.Helper()
	a, _ := cp.Assignment(id)
	if a.Site != site {
		t.Fatalf("%s placed at %q, want %q, the site the test loads", id, a.Site, site)
	}
	return a
}

func primeTask(id string, cpu float64) scheduler.TaskPlan {
	return scheduler.TaskPlan{
		ID: id, CPUSeconds: cpu,
		Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
		ReqHours: cpu / 3600, Checkpointable: false,
		OutputFile: id + ".out", OutputMB: 5,
	}
}

func (f *fixture) submit(t *testing.T, owner, plan string, tasks ...scheduler.TaskPlan) *scheduler.ConcretePlan {
	t.Helper()
	cp, err := f.sched.Submit(&scheduler.JobPlan{Name: plan, Owner: owner, Tasks: tasks})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestSubscriberWatchesPlans(t *testing.T) {
	f := newFixture(t)
	f.submit(t, "alice", "p1", primeTask("t1", 100), primeTask("t2", 100))
	f.submit(t, "bob", "p2", primeTask("t1", 100))
	if got := f.svc.Watched("alice"); len(got) != 2 || got[0].Plan != "p1" {
		t.Fatalf("alice watched = %v", got)
	}
	if got := f.svc.Watched(""); len(got) != 3 {
		t.Fatalf("all watched = %v", got)
	}
}

func TestSessionManager(t *testing.T) {
	m := NewSessionManager()
	if err := m.Authorize("alice", "alice"); err != nil {
		t.Errorf("owner denied: %v", err)
	}
	if err := m.Authorize("mallory", "alice"); err == nil {
		t.Error("stranger authorized")
	}
	if err := m.Authorize("", "alice"); err == nil {
		t.Error("anonymous authorized")
	}
	m.GrantAdmin("root")
	if err := m.Authorize("root", "alice"); err != nil {
		t.Errorf("admin denied: %v", err)
	}
	if !m.IsAdmin("root") {
		t.Error("IsAdmin(root) = false")
	}
}

func TestCommandsRequireAuthorization(t *testing.T) {
	f := newFixture(t)
	f.submit(t, "alice", "p1", primeTask("t1", 200))
	f.grid.Engine.RunFor(3 * time.Second)
	ref := TaskRef{Plan: "p1", Task: "t1"}
	if err := f.svc.Pause("mallory", ref); err == nil {
		t.Fatal("mallory paused alice's job")
	}
	if err := f.svc.Kill("", ref); err == nil {
		t.Fatal("anonymous kill succeeded")
	}
	if _, err := f.svc.Move("mallory", ref, ""); err == nil {
		t.Fatal("mallory moved alice's job")
	}
	// Owner works.
	if err := f.svc.Pause("alice", ref); err != nil {
		t.Fatalf("owner pause: %v", err)
	}
	if err := f.svc.Resume("alice", ref); err != nil {
		t.Fatalf("owner resume: %v", err)
	}
}

func TestPauseFreezesProgress(t *testing.T) {
	f := newFixture(t)
	f.svc.AutoSteer = false
	cp := f.submit(t, "alice", "p1", primeTask("t1", 100))
	f.grid.Engine.RunFor(10 * time.Second)
	ref := TaskRef{Plan: "p1", Task: "t1"}
	if err := f.svc.Pause("alice", ref); err != nil {
		t.Fatal(err)
	}
	a, _ := cp.Assignment("t1")
	before, _ := f.pools[a.Site].Job(a.CondorID)
	f.grid.Engine.RunFor(30 * time.Second)
	after, _ := f.pools[a.Site].Job(a.CondorID)
	if after.CPUSeconds != before.CPUSeconds {
		t.Fatalf("paused job progressed %v → %v", before.CPUSeconds, after.CPUSeconds)
	}
	if err := f.svc.Resume("alice", ref); err != nil {
		t.Fatal(err)
	}
	f.grid.Engine.RunFor(120 * time.Second)
	st, err := f.svc.TaskStatus(ref)
	if err != nil {
		t.Fatal(err)
	}
	if st.Assignment.State != scheduler.TaskCompleted {
		t.Fatalf("after resume = %+v", st.Assignment)
	}
}

func TestKillRemovesJob(t *testing.T) {
	f := newFixture(t)
	f.svc.AutoSteer = false
	cp := f.submit(t, "alice", "p1", primeTask("t1", 500))
	f.grid.Engine.RunFor(5 * time.Second)
	if err := f.svc.Kill("alice", TaskRef{Plan: "p1", Task: "t1"}); err != nil {
		t.Fatal(err)
	}
	a, _ := cp.Assignment("t1")
	info, err := f.pools[a.Site].Job(a.CondorID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != condor.StatusRemoved {
		t.Fatalf("killed job status = %v", info.Status)
	}
}

func TestSetPriority(t *testing.T) {
	f := newFixture(t)
	f.svc.AutoSteer = false
	cp := f.submit(t, "alice", "p1", primeTask("t1", 500))
	f.grid.Engine.RunFor(3 * time.Second)
	if err := f.svc.SetPriority("alice", TaskRef{Plan: "p1", Task: "t1"}, 7); err != nil {
		t.Fatal(err)
	}
	a, _ := cp.Assignment("t1")
	info, _ := f.pools[a.Site].Job(a.CondorID)
	if info.Priority != 7 {
		t.Fatalf("priority = %d", info.Priority)
	}
}

func TestManualMoveToNamedSite(t *testing.T) {
	f := newFixture(t)
	f.svc.AutoSteer = false
	cp := f.submit(t, "alice", "p1", primeTask("t1", 300))
	f.grid.Engine.RunFor(3 * time.Second)
	before, _ := cp.Assignment("t1")
	target := "siteB"
	if before.Site == "siteB" {
		target = "siteA"
	}
	after, err := f.svc.Move("alice", TaskRef{Plan: "p1", Task: "t1"}, target)
	if err != nil {
		t.Fatal(err)
	}
	if after.Site != target {
		t.Fatalf("moved to %s, want %s", after.Site, target)
	}
	// Moving to the site it is already on errors.
	if _, err := f.svc.Move("alice", TaskRef{Plan: "p1", Task: "t1"}, target); err == nil {
		t.Fatal("no-op move succeeded")
	}
	ns := f.svc.Notifications("alice")
	if len(ns) != 1 || ns[0].Kind != "moved" {
		t.Fatalf("notifications = %+v", ns)
	}
	// Notifications drain on read.
	if len(f.svc.Notifications("alice")) != 0 {
		t.Fatal("notifications did not drain")
	}
}

func TestUnknownRefErrors(t *testing.T) {
	f := newFixture(t)
	ref := TaskRef{Plan: "ghost", Task: "t"}
	if err := f.svc.Kill("alice", ref); err == nil {
		t.Fatal("kill of unknown task succeeded")
	}
	if _, err := f.svc.TaskStatus(ref); err == nil {
		t.Fatal("status of unknown task succeeded")
	}
	if _, err := f.svc.EstimateCompletion(ref); err == nil {
		t.Fatal("estimate of unknown task succeeded")
	}
}

// TestOptimizerMovesSlowJob reproduces the Figure 7 situation: a job lands
// on a site that then becomes heavily loaded; the Optimizer detects the
// slow execution rate via the Job Monitoring Service and reschedules.
func TestOptimizerMovesSlowJob(t *testing.T) {
	// The chosen site develops a 70% background load.
	f := newLoadedFixture(t, map[string]simgrid.Load{"siteA": loadedAt2s(0.7)})
	cp := f.submit(t, "alice", "p1", primeTask("t1", 283))
	f.grid.Engine.RunFor(2 * time.Second)
	start := startsAt(t, cp, "t1", "siteA")
	if start.State != scheduler.TaskSubmitted {
		t.Fatalf("state = %v", start.State)
	}

	if err := f.grid.Engine.RunUntil(func() bool {
		a, _ := cp.Assignment("t1")
		return a.Site != start.Site
	}, 5*time.Minute); err != nil {
		t.Fatalf("optimizer never moved the job: %v", err)
	}
	moved := f.grid.Engine.Now()
	sinceSubmit := moved.Sub(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC))
	// Detection requires minObservation (30s) + a poll boundary, but must
	// happen long before the job would finish at 0.3 rate (~940s).
	if sinceSubmit < 20*time.Second || sinceSubmit > 120*time.Second {
		t.Fatalf("moved after %v", sinceSubmit)
	}
	ns := f.svc.Notifications("alice")
	foundMove := false
	for _, n := range ns {
		if n.Kind == "moved" && strings.Contains(n.Message, "slow execution rate") {
			foundMove = true
		}
	}
	if !foundMove {
		t.Fatalf("no slow-rate move notification in %+v", ns)
	}
	// The moved job completes at the idle site.
	if err := f.grid.Engine.RunUntil(func() bool { d, ok := cp.Done(); return d && ok }, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	done := f.grid.Engine.Now().Sub(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC))
	// Restarted from zero at the new site: total ≈ move time + 283s,
	// far sooner than ~943s unsteered.
	if done > 450*time.Second {
		t.Fatalf("steered completion took %v", done)
	}
}

// TestOptimizerRespectsMinObservation: a slow job is left alone until it
// has run minObservation, and moved at the first poll after.
func TestOptimizerRespectsMinObservation(t *testing.T) {
	f := newLoadedFixture(t, map[string]simgrid.Load{"siteA": loadedAt2s(0.7)})
	cp := f.submit(t, "alice", "p1", primeTask("t1", 283))
	f.grid.Engine.RunFor(2 * time.Second)
	start := startsAt(t, cp, "t1", "siteA")
	info, err := f.mon.Job(start.Site, start.CondorID)
	if err != nil {
		t.Fatal(err)
	}
	started := info.StartTime
	// RunFor rounds up to whole ticks: stop one short of minObservation.
	f.grid.Engine.RunFor(started.Add(minObservation - f.grid.Engine.Tick()).Sub(f.grid.Engine.Now()))
	if a, _ := cp.Assignment("t1"); a.Site != start.Site {
		t.Fatalf("moved to %s after %v of running, before minObservation", a.Site, f.grid.Engine.Now().Sub(started))
	}
	f.grid.Engine.RunFor(f.svc.PollInterval)
	if a, _ := cp.Assignment("t1"); a.Site == start.Site {
		t.Fatalf("still at %s after %v of running, a poll past minObservation", a.Site, f.grid.Engine.Now().Sub(started))
	}
}

func TestOptimizerMaxMovesBound(t *testing.T) {
	// Both sites loaded: after the first move the job is slow again, but
	// maxMoves must prevent thrashing.
	f := newLoadedFixture(t, map[string]simgrid.Load{"siteA": loadedAt2s(0.8), "siteB": loadedAt2s(0.8)})
	cp := f.submit(t, "alice", "p1", primeTask("t1", 500))
	f.grid.Engine.RunFor(3*time.Minute + 2*time.Second)
	a, _ := cp.Assignment("t1")
	if a.Attempts > 2 {
		t.Fatalf("attempts = %d; optimizer thrashing", a.Attempts)
	}
}

func TestOptimizerIgnoresHealthyJobs(t *testing.T) {
	f := newFixture(t)
	cp := f.submit(t, "alice", "p1", primeTask("t1", 100))
	f.grid.Engine.RunFor(80 * time.Second)
	a, _ := cp.Assignment("t1")
	if a.Attempts != 1 {
		t.Fatalf("healthy job was moved: attempts = %d", a.Attempts)
	}
}

func TestPreferCheapUsesQuota(t *testing.T) {
	f := newLoadedFixture(t, map[string]simgrid.Load{"siteA": loadedAt2s(0.8)})
	f.svc.Preference = PreferCheap
	// Add a third site so "cheapest other site" differs from "only other
	// site".
	site := f.grid.AddSite("siteC")
	pool := condor.NewPool("siteC", f.grid, site)
	node := site.AddNode(f.grid.Engine, "siteC-n1", 1.0, simgrid.IdleLoad())
	pool.AddMachine(node, nil)
	f.grid.Network.Connect("siteA", "siteC", simgrid.Link{BandwidthMBps: 10})
	f.grid.Network.Connect("siteB", "siteC", simgrid.Link{BandwidthMBps: 10})
	f.sched.RegisterSite("siteC", &scheduler.SiteServices{Pool: pool})
	f.pools["siteC"], f.nodes["siteC"] = pool, node
	f.quota.SetRate("siteC", quota.Rate{CPUSecond: 0.001}) // cheapest

	cp := f.submit(t, "alice", "p1", primeTask("t1", 283))
	f.grid.Engine.RunFor(2 * time.Second)
	start := startsAt(t, cp, "t1", "siteA")
	if err := f.grid.Engine.RunUntil(func() bool {
		a, _ := cp.Assignment("t1")
		return a.Site != start.Site
	}, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	a, _ := cp.Assignment("t1")
	if a.Site != "siteC" {
		t.Fatalf("cheap preference moved to %s, want siteC", a.Site)
	}
	ns := f.svc.Notifications("alice")
	if len(ns) == 0 || !strings.Contains(ns[0].Message, "cheapest site") {
		t.Fatalf("notifications = %+v", ns)
	}
}

func TestBackupRecoveryOnServiceFailure(t *testing.T) {
	f := newFixture(t)
	cp := f.submit(t, "alice", "p1", primeTask("t1", 400))
	f.grid.Engine.RunFor(3 * time.Second)
	start, _ := cp.Assignment("t1")
	f.pools[start.Site].Fail()
	if err := f.grid.Engine.RunUntil(func() bool {
		a, _ := cp.Assignment("t1")
		return a.Site != start.Site && a.State == scheduler.TaskSubmitted
	}, 2*time.Minute); err != nil {
		t.Fatalf("backup/recovery never reallocated: %v", err)
	}
	kinds := map[string]bool{}
	for _, n := range f.svc.Notifications("alice") {
		kinds[n.Kind] = true
	}
	if !kinds["service-failure"] || !kinds["recovered"] {
		t.Fatalf("notification kinds = %v", kinds)
	}
	// The job completes at the new site even though the old service is
	// still dead.
	if err := f.grid.Engine.RunUntil(func() bool { d, ok := cp.Done(); return d && ok }, 15*time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestBackupRecoveryGraceAvoidsFalsePositive(t *testing.T) {
	f := newFixture(t)
	// Isolate Backup & Recovery: the Optimizer would (correctly) see the
	// suspension-induced low execution rate as slowness and move the job.
	f.svc.AutoSteer = false
	cp := f.submit(t, "alice", "p1", primeTask("t1", 400))
	f.grid.Engine.RunFor(3 * time.Second)
	start, _ := cp.Assignment("t1")
	f.pools[start.Site].Fail()
	f.grid.Engine.RunFor(serviceFailureGrace / 2)
	f.pools[start.Site].Recover()
	f.grid.Engine.RunFor(30 * time.Second)
	a, _ := cp.Assignment("t1")
	if a.Site != start.Site {
		t.Fatal("transient outage triggered reallocation")
	}
}

func TestJobFailureNotification(t *testing.T) {
	f := newFixture(t)
	tk := primeTask("t1", 300)
	tk.FailAfterCPU = 15
	f.submit(t, "alice", "p1", tk)
	f.grid.Engine.RunFor(60 * time.Second)
	var failed bool
	for _, n := range f.svc.Notifications("alice") {
		if n.Kind == "failed" {
			failed = true
		}
	}
	if !failed {
		t.Fatal("no failure notification")
	}
}

func TestCompletionNotificationAndExecutionState(t *testing.T) {
	f := newFixture(t)
	cp := f.submit(t, "alice", "p1", primeTask("t1", 30))
	if err := f.grid.Engine.RunUntil(func() bool { d, ok := cp.Done(); return d && ok }, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	f.grid.Engine.RunFor(10 * time.Second) // allow a poll cycle
	var completed bool
	for _, n := range f.svc.Notifications("alice") {
		if n.Kind == "completed" {
			completed = true
		}
	}
	if !completed {
		t.Fatal("no completion notification")
	}
	files := f.svc.ExecutionState(TaskRef{Plan: "p1", Task: "t1"})
	if len(files) != 1 || files[0].Name != "t1.out" {
		t.Fatalf("execution state = %+v", files)
	}
}

// TestCheapMovePricesTheJobsEstimate: the cheap preference prices the
// runtime estimate the job's ad carries, not the placement-time decision
// record (which a recovered plan holds zeroed) nor the task's CPU seconds.
func TestCheapMovePricesTheJobsEstimate(t *testing.T) {
	f := newLoadedFixture(t, map[string]simgrid.Load{"siteA": loadedAt2s(0.8)})
	f.svc.Preference = PreferCheap
	f.submit(t, "alice", "p1", primeTask("t1", 283))
	w, _, err := f.svc.lookup(TaskRef{Plan: "p1", Task: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	const estimate = 1000.0
	site, reason := f.svc.chooseBestSite(w, scheduler.Assignment{TaskID: "t1", Site: "siteA"}, estimate)
	_, cost, err := f.quota.CheapestSite([]string{"siteB"}, estimate, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, cpuCost, _ := f.quota.CheapestSite([]string{"siteB"}, 283, 0)
	if want := fmt.Sprintf("cheapest site at %.2f credits", cost); site != "siteB" || reason != want || cost == cpuCost {
		t.Fatalf("chooseBestSite = %s, %q; want siteB, %q", site, reason, want)
	}
}

func TestEstimateCompletion(t *testing.T) {
	f := newFixture(t)
	f.svc.AutoSteer = false
	f.submit(t, "alice", "p1", primeTask("t1", 300))
	f.grid.Engine.RunFor(60 * time.Second)
	sec, err := f.svc.EstimateCompletion(TaskRef{Plan: "p1", Task: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	// Default scheduler estimate is 300 (ReqHours·3600 ≈ 300 for our
	// prime task); after 60s of execution, remaining ≈ 240.
	if sec < 180 || sec > 300 {
		t.Fatalf("estimate = %v, want ≈240", sec)
	}
}

func TestPreferenceParsing(t *testing.T) {
	if p, err := ParsePreference("fast"); err != nil || p != PreferFast {
		t.Fatalf("fast = %v, %v", p, err)
	}
	if p, err := ParsePreference("cheap"); err != nil || p != PreferCheap {
		t.Fatalf("cheap = %v, %v", p, err)
	}
	if _, err := ParsePreference("lucky"); err == nil {
		t.Fatal("bad preference accepted")
	}
	if PreferFast.String() != "fast" || PreferCheap.String() != "cheap" {
		t.Fatal("Preference.String broken")
	}
}
