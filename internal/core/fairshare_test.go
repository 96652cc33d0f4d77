package core

import (
	"testing"
	"time"

	"repro/internal/fairshare"
	"repro/internal/scheduler"
)

// TestFairShareWiring checks that enabling Config.FairShare threads one
// fairness state through all three layers: pools record completion usage
// into it, quota charges fold into it, and the deployment exposes it.
func TestFairShareWiring(t *testing.T) {
	cfg := twoSiteConfig()
	cfg.FairShare = &fairshare.Config{HalfLife: -1} // exact accounting
	cfg.Sites[1].CostPerTransferMB = 0.2            // siteB prices transfers
	g := New(cfg)
	if g.FairShare == nil {
		t.Fatal("FairShare manager not exposed")
	}

	// Execution feeds usage: run a plan to completion.
	cp, err := g.Scheduler.Submit(&scheduler.JobPlan{
		Name: "p", Owner: "alice",
		Tasks: []scheduler.TaskPlan{{
			ID: "main", CPUSeconds: 30,
			Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(60 * time.Second)
	if done, ok := cp.Done(); !ok || !done {
		t.Fatalf("plan not done: %v %v", done, ok)
	}
	u := g.FairShare.Usage("alice")
	if u < 29 || u > 31 {
		t.Fatalf("usage after completion = %v, want ≈30", u)
	}
	a, _ := cp.Assignment("main")
	if su := g.FairShare.SiteUsage("alice", a.Site); su < 29 || su > 31 {
		t.Fatalf("site usage at %s = %v", a.Site, su)
	}

	// Accounting feeds usage — but only the transfer component: execution
	// CPU is already recorded by the pools, so a CPU-only charge (the
	// conventional completed-job charge) must not double-count.
	before := g.FairShare.Usage("alice")
	if _, err := g.Quota.Charge("alice", "siteB", 30, 0, g.Now(), "job cpu"); err != nil {
		t.Fatal(err)
	}
	if got := g.FairShare.Usage("alice"); got != before {
		t.Fatalf("CPU-only charge changed usage: %v → %v (double-count)", before, got)
	}
	if _, err := g.Quota.Charge("alice", "siteB", 0, 100, g.Now(), "dataset transfer"); err != nil {
		t.Fatal(err)
	}
	// 100 MB × 0.2 credits/MB = 20 credits = 20 CPU-seconds of standing.
	if got := g.FairShare.Usage("alice"); got < before+19 {
		t.Fatalf("usage after transfer charge = %v, want ≥ %v", got, before+19)
	}

	// Disabled by default: the seed configuration stays untouched.
	plain := New(twoSiteConfig())
	if plain.FairShare != nil {
		t.Fatal("FairShare enabled without opt-in")
	}
}
