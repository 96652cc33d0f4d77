package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scheduler"
	"repro/internal/simgrid"
)

// threeSiteConfig is a 3-site, 10-node deployment for stress tests.
func threeSiteConfig() Config {
	return Config{
		Sites: []SiteSpec{
			{Name: "siteA", Nodes: 4, CostPerCPUSecond: 0.05},
			{Name: "siteB", Nodes: 4, Load: simgrid.ConstantLoad(0.2), CostPerCPUSecond: 0.02},
			{Name: "siteC", Nodes: 2, Load: simgrid.ConstantLoad(0.4), CostPerCPUSecond: 0.01},
		},
		Links: []LinkSpec{
			{A: "siteA", B: "siteB", MBps: 20},
			{A: "siteA", B: "siteC", MBps: 10},
			{A: "siteB", B: "siteC", MBps: 5},
		},
		Users: []UserSpec{{Name: "alice", Password: "pw", Credits: 1e9}},
	}
}

// TestLargeDAGCampaign runs a 30-task mixed DAG across three sites and
// checks global invariants: every task completes, dependencies were
// honoured, estimator histories grew, and the steering service observed
// every task.
func TestLargeDAGCampaign(t *testing.T) {
	g := New(threeSiteConfig())
	g.PutDataset("siteA", "raw.data", 200)

	plan := &scheduler.JobPlan{Name: "campaign", Owner: "alice"}
	// Layer 1: 10 independent staging tasks reading the shared dataset.
	for i := 0; i < 10; i++ {
		plan.Tasks = append(plan.Tasks, scheduler.TaskPlan{
			ID: fmt.Sprintf("stage%d", i), CPUSeconds: float64(20 + 5*i),
			Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
			Inputs:     []scheduler.FileRef{{Name: "raw.data"}},
			OutputFile: fmt.Sprintf("skim%d.data", i), OutputMB: 20,
		})
	}
	// Layer 2: 10 reconstruction tasks, each depending on two stages.
	for i := 0; i < 10; i++ {
		plan.Tasks = append(plan.Tasks, scheduler.TaskPlan{
			ID: fmt.Sprintf("reco%d", i), CPUSeconds: float64(60 + 10*i),
			Queue: "long", Partition: "gae", Nodes: 1, JobType: "batch",
			DependsOn:  []string{fmt.Sprintf("stage%d", i), fmt.Sprintf("stage%d", (i+1)%10)},
			OutputFile: fmt.Sprintf("reco%d.root", i), OutputMB: 15,
		})
	}
	// Layer 3: 9 partial merges plus a final merge.
	for i := 0; i < 9; i++ {
		plan.Tasks = append(plan.Tasks, scheduler.TaskPlan{
			ID: fmt.Sprintf("merge%d", i), CPUSeconds: 30,
			Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
			DependsOn: []string{fmt.Sprintf("reco%d", i), fmt.Sprintf("reco%d", i+1)},
		})
	}
	final := scheduler.TaskPlan{
		ID: "final", CPUSeconds: 45,
		Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
		OutputFile: "analysis.root", OutputMB: 50,
	}
	for i := 0; i < 9; i++ {
		final.DependsOn = append(final.DependsOn, fmt.Sprintf("merge%d", i))
	}
	plan.Tasks = append(plan.Tasks, final)

	cp, err := g.Scheduler.Submit(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunUntilDone(cp, 4*time.Hour); err != nil {
		t.Fatal(err)
	}
	if done, ok := cp.Done(); !done || !ok {
		t.Fatalf("campaign done=%v ok=%v", done, ok)
	}

	// Dependency order held: every task was submitted after its deps
	// completed, which the scheduler guarantees only if SubmittedAt
	// ordering is consistent with the DAG.
	for _, tk := range plan.Tasks {
		a, _ := cp.Assignment(tk.ID)
		for _, dep := range tk.DependsOn {
			d, _ := cp.Assignment(dep)
			if a.SubmittedAt.Before(d.SubmittedAt) {
				t.Fatalf("%s submitted before its dependency %s", tk.ID, dep)
			}
		}
	}

	// Work spread across sites.
	var sites []string
	for _, a := range cp.Assignments() {
		if !slices.Contains(sites, a.Site) {
			sites = append(sites, a.Site)
		}
	}
	if len(sites) < 2 {
		t.Fatalf("all 30 tasks ran at %v", sites)
	}

	// Histories grew at every used site (the learning loop).
	total := 0
	for _, site := range sites {
		svc, ok := g.Scheduler.SiteServicesFor(site)
		if !ok {
			t.Fatalf("site %s unregistered", site)
		}
		total += svc.Runtime.History.Len()
	}
	if total != len(plan.Tasks) {
		t.Fatalf("history records = %d, want %d", total, len(plan.Tasks))
	}

	// Steering watched all 30 tasks; drain its notifications.
	if got := len(g.Steering.Watched("alice")); got != len(plan.Tasks) {
		t.Fatalf("steering watched %d tasks", got)
	}
	g.Run(15 * time.Second)
	completions := 0
	for _, n := range g.Steering.Notifications("alice") {
		if n.Kind == "completed" {
			completions++
		}
	}
	if completions != len(plan.Tasks) {
		t.Fatalf("completion notifications = %d, want %d", completions, len(plan.Tasks))
	}

	// The final output exists where 'final' ran.
	fa, _ := cp.Assignment("final")
	if _, ok := g.Grid.Site(fa.Site).Storage().Get("analysis.root"); !ok {
		t.Fatal("final output missing")
	}
}

// TestChaosRecoveryCampaign injects repeated execution-service outages
// while plans run with steering's Backup & Recovery active; every plan
// must still finish.
func TestChaosRecoveryCampaign(t *testing.T) {
	g := New(threeSiteConfig())
	g.Steering.PollInterval = 5 * time.Second
	g.Steering.AutoSteer = false // isolate recovery from optimization

	var plans []*scheduler.ConcretePlan
	for i := 0; i < 6; i++ {
		cp, err := g.Scheduler.Submit(&scheduler.JobPlan{
			Name: fmt.Sprintf("chaos%d", i), Owner: "alice",
			Tasks: []scheduler.TaskPlan{{
				ID: "work", CPUSeconds: float64(100 + 20*i),
				Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, cp)
	}

	// Rolling outages: each site fails for 30 s in turn.
	for round, site := range []string{"siteA", "siteB", "siteA"} {
		g.Run(20 * time.Second)
		pool, _ := g.Pool(site)
		pool.Fail()
		g.Run(30 * time.Second)
		pool.Recover()
		_ = round
	}

	deadline := 2 * time.Hour
	if err := g.Grid.Engine.RunUntil(func() bool {
		for _, cp := range plans {
			if done, _ := cp.Done(); !done {
				return false
			}
		}
		return true
	}, deadline); err != nil {
		for i, cp := range plans {
			a, _ := cp.Assignment("work")
			t.Logf("plan %d: %+v", i, a)
		}
		t.Fatal(err)
	}
	for i, cp := range plans {
		if _, ok := cp.Done(); !ok {
			a, _ := cp.Assignment("work")
			t.Fatalf("plan %d did not succeed: %+v", i, a)
		}
	}
}

// TestManyUsersQuotaIsolation runs plans from several users and checks
// quota ledgers stay per-user consistent.
func TestManyUsersQuotaIsolation(t *testing.T) {
	cfg := threeSiteConfig()
	cfg.Users = nil
	for i := 0; i < 4; i++ {
		cfg.Users = append(cfg.Users, UserSpec{
			Name: fmt.Sprintf("user%d", i), Password: "pw", Credits: 10000,
		})
	}
	g := New(cfg)
	var cps []*scheduler.ConcretePlan
	for i := 0; i < 4; i++ {
		cp, err := g.Scheduler.Submit(&scheduler.JobPlan{
			Name: fmt.Sprintf("u%dplan", i), Owner: fmt.Sprintf("user%d", i),
			Tasks: []scheduler.TaskPlan{{
				ID: "t", CPUSeconds: 50,
				Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		cps = append(cps, cp)
	}
	if err := g.Grid.Engine.RunUntil(func() bool {
		for _, cp := range cps {
			if d, _ := cp.Done(); !d {
				return false
			}
		}
		return true
	}, time.Hour); err != nil {
		t.Fatal(err)
	}
	// Charge each user for their own job; balances must change
	// independently.
	for i, cp := range cps {
		user := fmt.Sprintf("user%d", i)
		a, _ := cp.Assignment("t")
		pool, _ := g.Pool(a.Site)
		info, err := pool.Job(a.CondorID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Quota.Charge(user, a.Site, info.CPUSeconds, 0, g.Now(), "t"); err != nil {
			t.Fatal(err)
		}
		bal, _ := g.Quota.Balance(user)
		if bal >= 10000 {
			t.Fatalf("%s not charged (balance %v)", user, bal)
		}
		st, err := g.Quota.Export(0)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(st.Ledger); n != i+1 || st.Ledger[n-1].User != user {
			t.Fatalf("after charging %s the ledger is %+v", user, st.Ledger)
		}
	}
	// Steering watch lists are per-owner.
	for i := 0; i < 4; i++ {
		user := fmt.Sprintf("user%d", i)
		if got := len(g.Steering.Watched(user)); got != 1 {
			t.Fatalf("%s watched = %d", user, got)
		}
	}
}

// TestConcurrentSubmitsOfOneName: of concurrent submissions of one plan
// name, exactly one succeeds.
func TestConcurrentSubmitsOfOneName(t *testing.T) {
	g := New(twoSiteConfig())
	const n = 8
	var wg sync.WaitGroup
	var ok atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Client("alice").Submit(context.Background(), specOf("same", 30)); err == nil {
				ok.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := ok.Load(); got != 1 {
		t.Fatalf("%d of %d concurrent submissions of one name succeeded, want 1", got, n)
	}
}
