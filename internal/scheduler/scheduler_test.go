package scheduler

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/classad"
	"repro/internal/condor"
	"repro/internal/estimator"
	"repro/internal/monalisa"
	"repro/internal/replica"
	"repro/internal/simgrid"
)

// fixture is a two-site grid with pools, monitor, and scheduler.
type fixture struct {
	grid  *simgrid.Grid
	repo  *monalisa.Repository
	sched *Scheduler
	pools map[string]*condor.Pool
}

// newFixture builds sites named in nodesPerSite with the given loads.
func newFixture(t *testing.T, sites map[string]struct {
	nodes int
	load  float64
}) *fixture {
	t.Helper()
	g := simgrid.NewGrid(time.Second, 1)
	repo := monalisa.NewRepository()
	f := &fixture{grid: g, repo: repo, pools: make(map[string]*condor.Pool)}
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	// Deterministic construction order.
	for _, name := range []string{"siteA", "siteB", "siteC"} {
		cfg, ok := sites[name]
		if !ok {
			continue
		}
		site := g.AddSite(name)
		pool := condor.NewPool(name, g, site)
		for i := 0; i < cfg.nodes; i++ {
			n := site.AddNode(g.Engine, name+"-n"+string(rune('0'+i)), 1.0, simgrid.ConstantLoad(cfg.load))
			pool.AddMachine(n, nil)
		}
		f.pools[name] = pool
	}
	_ = names
	// Fully connected network.
	siteNames := g.SiteNames()
	for i := 0; i < len(siteNames); i++ {
		for j := i + 1; j < len(siteNames); j++ {
			g.Network.Connect(siteNames[i], siteNames[j], simgrid.Link{BandwidthMBps: 10})
		}
	}
	monalisa.NewFarmMonitor(repo, g, 5*time.Second)
	f.sched = New(Config{Grid: g, Monitor: repo})
	for _, name := range siteNames {
		f.sched.RegisterSite(name, &SiteServices{
			Pool:    f.pools[name],
			Runtime: estimator.NewRuntimeEstimator(estimator.NewHistory(0)),
		})
	}
	return f
}

func simplePlan(owner string, tasks ...TaskPlan) *JobPlan {
	return &JobPlan{Name: "plan-" + owner, Owner: owner, Tasks: tasks}
}

func task(id string, cpu float64, deps ...string) TaskPlan {
	return TaskPlan{ID: id, CPUSeconds: cpu, Queue: "q", Partition: "p", Nodes: 1, JobType: "batch", ReqHours: cpu / 3600, DependsOn: deps}
}

func TestPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		plan *JobPlan
	}{
		{"no name", &JobPlan{Tasks: []TaskPlan{task("a", 1)}}},
		{"no tasks", &JobPlan{Name: "p"}},
		{"empty id", &JobPlan{Name: "p", Tasks: []TaskPlan{{CPUSeconds: 1}}}},
		{"dup id", &JobPlan{Name: "p", Tasks: []TaskPlan{task("a", 1), task("a", 1)}}},
		{"zero cpu", &JobPlan{Name: "p", Tasks: []TaskPlan{task("a", 0)}}},
		{"bad dep", &JobPlan{Name: "p", Tasks: []TaskPlan{task("a", 1, "ghost")}}},
		{"self dep", &JobPlan{Name: "p", Tasks: []TaskPlan{task("a", 1, "a")}}},
		{"cycle", &JobPlan{Name: "p", Tasks: []TaskPlan{task("a", 1, "b"), task("b", 1, "a")}}},
	}
	for _, c := range cases {
		if err := c.plan.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded", c.name)
		}
	}
	good := simplePlan("u", task("a", 1), task("b", 1, "a"))
	if err := good.Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

func TestTopoOrder(t *testing.T) {
	p := simplePlan("u",
		task("fetch", 1),
		task("reco1", 1, "fetch"),
		task("reco2", 1, "fetch"),
		task("merge", 1, "reco1", "reco2"),
	)
	order, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos["fetch"] != 0 || pos["merge"] != 3 {
		t.Fatalf("order = %v", order)
	}
	if pos["reco1"] > pos["merge"] || pos["reco2"] > pos["merge"] {
		t.Fatalf("order = %v", order)
	}
}

func TestSubmitRunsSingleTask(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {1, 0}})
	cp, err := f.sched.Submit(simplePlan("alice", task("t1", 30)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.grid.Engine.RunUntil(func() bool { d, ok := cp.Done(); return d && ok }, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	a, _ := cp.Assignment("t1")
	if a.Site != "siteA" || a.State != TaskCompleted || a.CondorID == 0 {
		t.Fatalf("assignment = %+v", a)
	}
}

func TestSubmitValidatesAndRequiresSites(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {1, 0}})
	if _, err := f.sched.Submit(&JobPlan{}); err == nil {
		t.Fatal("invalid plan accepted")
	}
	empty := New(Config{Grid: simgrid.NewGrid(time.Second, 1)})
	if _, err := empty.Submit(simplePlan("u", task("a", 1))); err == nil {
		t.Fatal("siteless scheduler accepted a plan")
	}
}

func TestDAGOrderRespected(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {2, 0}})
	cp, err := f.sched.Submit(simplePlan("alice",
		task("first", 10),
		task("second", 10, "first"),
	))
	if err != nil {
		t.Fatal(err)
	}
	f.grid.Engine.RunFor(5 * time.Second)
	// While first runs, second must not be submitted.
	a2, _ := cp.Assignment("second")
	if a2.State != TaskPending {
		t.Fatalf("dependent task state = %v", a2.State)
	}
	if err := f.grid.Engine.RunUntil(func() bool { d, ok := cp.Done(); return d && ok }, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	a1, _ := cp.Assignment("first")
	a2, _ = cp.Assignment("second")
	if !a2.SubmittedAt.After(a1.SubmittedAt) {
		t.Fatalf("second submitted at %v, first at %v", a2.SubmittedAt, a1.SubmittedAt)
	}
}

func TestSelectSitePrefersIdleSite(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{
		"siteA": {1, 0.8}, // heavily loaded
		"siteB": {1, 0.0}, // idle
	})
	f.grid.Engine.RunFor(6 * time.Second) // let MonALISA sample
	best, all, err := f.sched.SelectSite(task("t", 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.Site != "siteB" {
		t.Fatalf("best = %+v (all %+v)", best, all)
	}
	if len(all) != 2 {
		t.Fatalf("considered %d sites", len(all))
	}
	// Loaded site's score reflects the load multiplier.
	var a, b SiteEstimate
	for _, e := range all {
		if e.Site == "siteA" {
			a = e
		} else {
			b = e
		}
	}
	if a.Load < 0.7 || b.Load > 0.1 {
		t.Fatalf("loads = %+v %+v", a, b)
	}
	if a.Score <= b.Score {
		t.Fatalf("scores: loaded %v <= idle %v", a.Score, b.Score)
	}
}

func TestSelectSiteAccountsForBacklog(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{
		"siteA": {1, 0},
		"siteB": {1, 0},
	})
	// Pile work on siteA's pool directly.
	for i := 0; i < 5; i++ {
		ad := jobAdForTest("bg", 500)
		if _, err := f.pools["siteA"].Submit(ad); err != nil {
			t.Fatal(err)
		}
	}
	f.grid.Engine.RunFor(2 * time.Second)
	best, _, err := f.sched.SelectSite(task("t", 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.Site != "siteB" {
		t.Fatalf("backlog ignored: best = %+v", best)
	}

	// At one instant, a task scored after another's submission sees it:
	// the first takes one of two idle sites, so the second takes the
	// other.
	f = newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {1, 0}, "siteB": {1, 0}})
	cp, err := f.sched.Submit(simplePlan("u", task("first", 1000)))
	if err != nil {
		t.Fatal(err)
	}
	first, _ := cp.Assignment("first")
	second, _, err := f.sched.SelectSite(task("second", 1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != TaskSubmitted || second.Site == first.Site {
		t.Fatalf("first task %v at %s; a second scored at that instant takes %s, want the other site", first.State, first.Site, second.Site)
	}
}

func TestSelectSiteExclusion(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{
		"siteA": {1, 0},
		"siteB": {1, 0.9},
	})
	f.grid.Engine.RunFor(6 * time.Second)
	best, _, err := f.sched.SelectSite(task("t", 100), map[string]bool{"siteA": true})
	if err != nil {
		t.Fatal(err)
	}
	if best.Site != "siteB" {
		t.Fatalf("exclusion ignored: %+v", best)
	}
	if _, _, err := f.sched.SelectSite(task("t", 100), map[string]bool{"siteA": true, "siteB": true}); err == nil {
		t.Fatal("all-excluded select succeeded")
	}
}

func TestInputStagingDelaysSubmission(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{
		"siteA": {1, 0},
		"siteB": {1, 0},
	})
	// 100 MB dataset at siteA; force execution at siteB via exclusion of
	// nothing — make siteA unattractive with background jobs instead.
	f.grid.Site("siteA").Storage().Put("data.root", 100)
	for i := 0; i < 4; i++ {
		f.pools["siteA"].Submit(jobAdForTest("bg", 1000))
	}
	f.grid.Engine.RunFor(2 * time.Second)
	tk := task("t1", 10)
	tk.Inputs = []FileRef{{Name: "data.root", Site: "siteA", SizeMB: 100}}
	cp, err := f.sched.Submit(simplePlan("alice", tk))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := cp.Assignment("t1")
	if a.Site != "siteB" {
		t.Fatalf("expected siteB placement, got %+v", a)
	}
	if a.State != TaskStaging {
		t.Fatalf("state = %v, want staging", a.State)
	}
	if a.Estimates.TransferSeconds < 9 {
		t.Fatalf("transfer estimate = %v, want ≈10s", a.Estimates.TransferSeconds)
	}
	// 100MB over 10MB/s = 10s; after that the job must be submitted and
	// the replica must exist at siteB.
	f.grid.Engine.RunFor(12 * time.Second)
	a, _ = cp.Assignment("t1")
	if a.State != TaskSubmitted && a.State != TaskCompleted {
		t.Fatalf("post-staging state = %v", a.State)
	}
	if _, ok := f.grid.Site("siteB").Storage().Get("data.root"); !ok {
		t.Fatal("replica not created at siteB")
	}
	if err := f.grid.Engine.RunUntil(func() bool { d, ok := cp.Done(); return d && ok }, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateRecordedAtSubmission(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {1, 0}})
	cp, err := f.sched.Submit(simplePlan("alice", task("t1", 30)))
	if err != nil {
		t.Fatal(err)
	}
	f.grid.Engine.RunFor(time.Second)
	a, _ := cp.Assignment("t1")
	info, err := f.pools["siteA"].Job(a.CondorID)
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimates.RuntimeSeconds <= 0 || info.EstimatedRuntime != a.Estimates.RuntimeSeconds {
		t.Fatalf("job ad's EstimatedRuntime = %v, want the submission-time estimate %v",
			info.EstimatedRuntime, a.Estimates.RuntimeSeconds)
	}
}

func TestLearningImprovesEstimates(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {1, 0}})
	// First task: no history → default/ReqHours-based estimate.
	cp1, _ := f.sched.Submit(simplePlan("alice", task("warm", 120)))
	if err := f.grid.Engine.RunUntil(func() bool { d, _ := cp1.Done(); return d }, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	svc, _ := f.sched.SiteServicesFor("siteA")
	if svc.Runtime.History.Len() != 1 {
		t.Fatalf("history length = %d, want 1", svc.Runtime.History.Len())
	}
	// Second, identical task: estimate should now reflect the observed
	// ~120s runtime.
	best, _, err := f.sched.SelectSite(task("next", 120), nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.RuntimeSeconds < 100 || best.RuntimeSeconds > 140 {
		t.Fatalf("learned estimate = %v, want ≈120", best.RuntimeSeconds)
	}
}

func TestRescheduleMovesJob(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{
		"siteA": {1, 0},
		"siteB": {1, 0},
	})
	tk := task("t1", 200)
	tk.Checkpointable = true
	cp, err := f.sched.Submit(simplePlan("alice", tk))
	if err != nil {
		t.Fatal(err)
	}
	f.grid.Engine.RunFor(50 * time.Second)
	before, _ := cp.Assignment("t1")
	if before.State != TaskSubmitted {
		t.Fatalf("pre-move state = %v", before.State)
	}
	after, err := f.sched.Reschedule(cp, "t1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.Site == before.Site {
		t.Fatalf("reschedule stayed at %s", after.Site)
	}
	if after.Attempts != 2 {
		t.Fatalf("attempts = %d", after.Attempts)
	}
	// Old job must be gone from the original pool.
	old, err := f.pools[before.Site].Job(before.CondorID)
	if err != nil {
		t.Fatal(err)
	}
	if old.Status != condor.StatusRemoved {
		t.Fatalf("old job status = %v", old.Status)
	}
	// Checkpointed: remaining ~150s, so total completion well before 200s
	// more.
	start := f.grid.Engine.Now()
	if err := f.grid.Engine.RunUntil(func() bool { d, ok := cp.Done(); return d && ok }, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if took := f.grid.Engine.Now().Sub(start); took > 170*time.Second {
		t.Fatalf("checkpointed move took %v, want ≈150s", took)
	}
}

func TestRescheduleUnknownTask(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {1, 0}})
	cp, _ := f.sched.Submit(simplePlan("alice", task("t1", 10)))
	if _, err := f.sched.Reschedule(cp, "ghost", nil); err == nil {
		t.Fatal("rescheduling a phantom task succeeded")
	}
}

func TestResubmitAfterFailure(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{
		"siteA": {1, 0},
		"siteB": {1, 0},
	})
	// Fail injection lives in the condor ad, which the scheduler does not
	// expose; emulate a failure by failing siteA's pool after submission.
	cp, err := f.sched.Submit(simplePlan("alice", task("t1", 100)))
	if err != nil {
		t.Fatal(err)
	}
	f.grid.Engine.RunFor(5 * time.Second)
	a, _ := cp.Assignment("t1")
	firstSite := a.Site
	na, err := f.sched.Resubmit(cp, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if na.Site == firstSite {
		t.Fatalf("resubmit chose the same site %s", na.Site)
	}
}

func TestResubmitSingleSiteFallsBack(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {1, 0}})
	cp, _ := f.sched.Submit(simplePlan("alice", task("t1", 50)))
	f.grid.Engine.RunFor(2 * time.Second)
	na, err := f.sched.Resubmit(cp, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if na.Site != "siteA" {
		t.Fatalf("fallback site = %s", na.Site)
	}
}

func TestSchedulerMarksCondorFailure(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {1, 0}})
	tk := task("t1", 100)
	tk.FailAfterCPU = 10
	cp, err := f.sched.Submit(simplePlan("alice", tk))
	if err != nil {
		t.Fatal(err)
	}
	f.grid.Engine.RunFor(30 * time.Second)
	a, _ := cp.Assignment("t1")
	if a.State != TaskFailed || a.Attempts != 1 {
		t.Fatalf("state = %v after %d attempts, want failed after 1: resubmission is the Steering Service's call", a.State, a.Attempts)
	}
	// Steering-driven recovery: Resubmit places it again (single site →
	// same site) and it fails again; the scheduler must keep functioning.
	if _, err := f.sched.Resubmit(cp, "t1"); err != nil {
		t.Fatal(err)
	}
	f.grid.Engine.RunFor(30 * time.Second)
	a, _ = cp.Assignment("t1")
	if a.State != TaskFailed {
		t.Fatalf("state after doomed resubmit = %v", a.State)
	}
}

// TestSubmitRegistersPlanOnce: a submitted plan is in the plan table
// under its name, and a second plan of that name is refused, leaving the
// first in place.
func TestSubmitRegistersPlanOnce(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {1, 0}})
	cp, err := f.sched.Submit(simplePlan("alice", task("t1", 10)))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := f.sched.Plan("plan-alice"); !ok || got != cp {
		t.Fatalf("Plan(plan-alice) = %p, %v; want the submitted plan", got, ok)
	}
	if _, err := f.sched.Submit(simplePlan("alice", task("t2", 10))); err == nil || !strings.Contains(err.Error(), "already submitted") {
		t.Fatalf("second submission of one name: err = %v, want already submitted", err)
	}
	if plans := f.sched.Plans(); len(plans) != 1 || plans[0] != cp {
		t.Fatalf("Plans() = %v, want only the first plan", plans)
	}
	if _, ok := f.sched.Plan("ghost"); ok {
		t.Fatal("Plan(ghost) found a plan")
	}
}

func TestConcretePlanDoneSemantics(t *testing.T) {
	p := simplePlan("u", task("a", 1), task("b", 1))
	cp := newConcretePlan(p)
	if d, _ := cp.Done(); d {
		t.Fatal("fresh plan reports done")
	}
	cp.update("a", func(x *Assignment) { x.State = TaskCompleted })
	cp.update("b", func(x *Assignment) { x.State = TaskFailed })
	d, ok := cp.Done()
	if !d || ok {
		t.Fatalf("Done = %v, %v", d, ok)
	}
}

func TestTaskStateStrings(t *testing.T) {
	for s, want := range map[TaskState]string{
		TaskPending: "pending", TaskStaging: "staging", TaskSubmitted: "submitted",
		TaskCompleted: "completed", TaskFailed: "failed",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func jobAdForTest(owner string, cpu float64) *classad.Ad {
	return classad.New().Set(condor.AttrOwner, owner).Set(condor.AttrCpuSeconds, cpu)
}

func TestReplicaCatalogStaging(t *testing.T) {
	// Three sites; dataset replicated at siteA and siteC. A task pinned
	// to siteB (every other site backlogged) must stage from the closest
	// replica, and the new copy must be catalogued.
	g := simgrid.NewGrid(time.Second, 1)
	repo := monalisa.NewRepository()
	cat := replica.NewCatalog()
	sched := New(Config{Grid: g, Monitor: repo, Replicas: cat})
	pools := map[string]*condor.Pool{}
	for _, name := range []string{"siteA", "siteB", "siteC"} {
		site := g.AddSite(name)
		pool := condor.NewPool(name, g, site)
		pool.AddMachine(site.AddNode(g.Engine, name+"-n", 1, simgrid.IdleLoad()), nil)
		sched.RegisterSite(name, &SiteServices{Pool: pool})
		pools[name] = pool
	}
	// siteA—siteB is fast; siteC—siteB is slow.
	g.Network.Connect("siteA", "siteB", simgrid.Link{BandwidthMBps: 100})
	g.Network.Connect("siteA", "siteC", simgrid.Link{BandwidthMBps: 1})
	g.Network.Connect("siteB", "siteC", simgrid.Link{BandwidthMBps: 1})
	g.Site("siteA").Storage().Put("data.root", 200)
	g.Site("siteC").Storage().Put("data.root", 200)
	cat.Register("data.root", "siteA", 200)
	cat.Register("data.root", "siteC", 200)
	// Backlog A and C so B wins placement.
	for _, name := range []string{"siteA", "siteC"} {
		for i := 0; i < 4; i++ {
			pools[name].Submit(jobAdForTest("bg", 2000))
		}
	}
	g.Engine.RunFor(2 * time.Second)

	tk := task("t1", 30)
	tk.Inputs = []FileRef{{Name: "data.root"}} // no site: catalog resolves
	cp, err := sched.Submit(simplePlan("alice", tk))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := cp.Assignment("t1")
	if a.Site != "siteB" {
		t.Fatalf("placed at %s, want siteB", a.Site)
	}
	// Closest replica is siteA at 100MB/s: 2s transfer, not 200s.
	if a.Estimates.TransferSeconds > 5 {
		t.Fatalf("transfer estimate = %v; picked the slow replica", a.Estimates.TransferSeconds)
	}
	if err := g.Engine.RunUntil(func() bool { d, ok := cp.Done(); return d && ok }, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	// The staged copy is now catalogued at siteB.
	if !slices.ContainsFunc(cat.Locations("data.root"), func(l replica.Location) bool { return l.Site == "siteB" }) {
		t.Fatal("staged replica not registered")
	}
	if _, ok := g.Site("siteB").Storage().Get("data.root"); !ok {
		t.Fatal("staged file missing from siteB storage")
	}
}

func TestOutputRegisteredInCatalog(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	cat := replica.NewCatalog()
	sched := New(Config{Grid: g, Replicas: cat})
	site := g.AddSite("siteA")
	pool := condor.NewPool("siteA", g, site)
	pool.AddMachine(site.AddNode(g.Engine, "n", 1, simgrid.IdleLoad()), nil)
	sched.RegisterSite("siteA", &SiteServices{Pool: pool})
	tk := task("t1", 10)
	tk.OutputFile = "result.root"
	tk.OutputMB = 33
	cp, err := sched.Submit(simplePlan("alice", tk))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Engine.RunUntil(func() bool { d, ok := cp.Done(); return d && ok }, time.Minute); err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(3 * time.Second)
	locs := cat.Locations("result.root")
	if len(locs) != 1 || locs[0].Site != "siteA" || locs[0].SizeMB != 33 {
		t.Fatalf("output replica = %+v", locs)
	}
}

func TestUnresolvableInputFailsTask(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {1, 0}})
	tk := task("t1", 10)
	tk.Inputs = []FileRef{{Name: "nowhere.root"}} // no site, no catalog
	cp, err := f.sched.Submit(simplePlan("alice", tk))
	if err != nil {
		t.Fatal(err)
	}
	f.grid.Engine.RunFor(time.Second)
	a, _ := cp.Assignment("t1")
	if a.State != TaskFailed {
		t.Fatalf("state = %v, want failed", a.State)
	}
}

// Property: TopoOrder respects every dependency edge for random DAGs.
func TestQuickTopoOrderRespectsEdges(t *testing.T) {
	f := func(nRaw uint8, edgeBits uint64) bool {
		n := int(nRaw%8) + 2
		plan := &JobPlan{Name: "rand", Owner: "u"}
		for i := 0; i < n; i++ {
			tp := TaskPlan{ID: fmt.Sprintf("t%d", i), CPUSeconds: 1}
			// Edges only from lower to higher index: a DAG by construction.
			for j := 0; j < i; j++ {
				if edgeBits>>(uint(i*7+j)%63)&1 == 1 {
					tp.DependsOn = append(tp.DependsOn, fmt.Sprintf("t%d", j))
				}
			}
			plan.Tasks = append(plan.Tasks, tp)
		}
		if err := plan.Validate(); err != nil {
			return false
		}
		order, err := plan.TopoOrder()
		if err != nil {
			return false
		}
		pos := map[string]int{}
		for i, id := range order {
			pos[id] = i
		}
		for _, tsk := range plan.Tasks {
			for _, dep := range tsk.DependsOn {
				if pos[dep] >= pos[tsk.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPumpWalksPendingPlansOnly pins the cost of a Submit's pump: it
// examines the plans that still hold a task waiting to launch, not every
// plan the scheduler ever took.
func TestPumpWalksPendingPlansOnly(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {2, 0}})
	pending := func() int { return len(f.sched.pending) }
	for i := 0; i < 1000; i++ {
		if _, err := f.sched.Submit(&JobPlan{Name: fmt.Sprintf("p%d", i), Owner: "u", Tasks: []TaskPlan{task("a", 1e6)}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := pending(); n != 0 {
		t.Fatalf("after 1000 launched single-task plans the next pump walks %d plans, want none of them", n)
	}
	// A plan with a task behind a dependency is all a further Submit's
	// pump examines, and it stays until that task launches.
	cp, err := f.sched.Submit(simplePlan("chain", task("a", 1), task("b", 1, "a")))
	if err != nil {
		t.Fatal(err)
	}
	if n := pending(); n != 1 {
		t.Fatalf("pump walks %d plans, want the 1 with a task still pending", n)
	}
	if a, _ := cp.Assignment("b"); a.State != TaskPending {
		t.Fatalf("task b is %v before its dependency completed", a.State)
	}
}

// TestSubscriberQueuesOnlyWhatDrainActsOn: drainEvents applies completions
// and failures and drops everything else, so nothing else is held for it.
// A job paused and resumed 5 000 times between two engine wake-ups queues
// no event; each transition still drops the site's cached backlog. The
// completion that follows is queued and applied.
func TestSubscriberQueuesOnlyWhatDrainActsOn(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {1, 0}})
	cp, err := f.sched.Submit(simplePlan("u", task("a", 30)))
	if err != nil {
		t.Fatal(err)
	}
	f.grid.Engine.RunFor(5 * time.Second)
	a, _ := cp.Assignment("a")
	if a.State != TaskSubmitted {
		t.Fatalf("task a is %v after 5 s, want it submitted", a.State)
	}
	pool := f.pools["siteA"]
	for i := 0; i < 5000; i++ {
		for _, transition := range []func(int) error{pool.Suspend, pool.Resume} {
			f.sched.backlogCache["siteA"] = -1
			if err := transition(a.CondorID); err != nil {
				t.Fatal(err)
			}
			if _, ok := f.sched.backlogCache["siteA"]; ok {
				t.Fatalf("pause/resume %d left the site's cached backlog", i)
			}
		}
	}
	if queued := len(f.sched.events); queued != 0 {
		t.Fatalf("the scheduler queues %d pause/resume events its drain would drop", queued)
	}
	f.grid.Engine.RunFor(60 * time.Second)
	if a, _ := cp.Assignment("a"); a.State != TaskCompleted {
		t.Fatalf("task a is %v after its job completed", a.State)
	}
}

// TestConcurrentSubmitsLaunchEachTaskOnce: submissions arrive on goroutines
// of their own and take turns through one lock, as a deployment's callers
// take turns through its owner's. Submit pumps on its caller's turn, so
// each turn walks the plans the earlier turns left pending. Each task must
// still launch exactly once, on the site its assignment names.
func TestConcurrentSubmitsLaunchEachTaskOnce(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {4, 0}, "siteB": {4, 0}})
	const n = 8
	cps := make([]*ConcretePlan, n)
	var owner sync.Mutex
	var wg sync.WaitGroup
	for i := range cps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			owner.Lock()
			defer owner.Unlock()
			cp, err := f.sched.Submit(&JobPlan{Name: fmt.Sprintf("p%d", i), Owner: "u", Tasks: []TaskPlan{task("a", 100)}})
			if err != nil {
				t.Error(err)
			}
			cps[i] = cp
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	held := 0
	for _, pool := range f.pools {
		jobs, err := pool.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		held += len(jobs)
	}
	if held != n {
		t.Fatalf("the pools hold %d jobs for %d one-task plans", held, n)
	}
	named := map[jobKey]bool{}
	for i, cp := range cps {
		a, _ := cp.Assignment("a")
		if a.State != TaskSubmitted || a.Attempts != 1 {
			t.Fatalf("plan %d: assignment %+v, want submitted once", i, a)
		}
		if _, err := f.pools[a.Site].Job(a.CondorID); err != nil {
			t.Fatalf("plan %d names job %d at %s: %v", i, a.CondorID, a.Site, err)
		}
		k := jobKey{pool: a.Site, id: a.CondorID}
		if named[k] {
			t.Fatalf("plan %d names job %d at %s, already another plan's", i, a.CondorID, a.Site)
		}
		named[k] = true
	}
}

// TestConcurrentSubmitsOfOneName: of submissions of one plan name from
// goroutines taking turns through one lock, exactly one succeeds and the
// plan table holds one plan.
func TestConcurrentSubmitsOfOneName(t *testing.T) {
	f := newFixture(t, map[string]struct {
		nodes int
		load  float64
	}{"siteA": {4, 0}, "siteB": {4, 0}})
	const n = 8
	var owner sync.Mutex
	var wg sync.WaitGroup
	var won atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner.Lock()
			defer owner.Unlock()
			if _, err := f.sched.Submit(&JobPlan{Name: "same", Owner: "u", Tasks: []TaskPlan{task("a", 100)}}); err == nil {
				won.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := won.Load(); got != 1 {
		t.Fatalf("%d of %d concurrent submissions of one name succeeded, want 1", got, n)
	}
	if plans := f.sched.Plans(); len(plans) != 1 {
		t.Fatalf("the plan table holds %d plans, want 1", len(plans))
	}
}
