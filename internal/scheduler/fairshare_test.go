package scheduler

import (
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/estimator"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
)

// twinSiteScheduler builds two identical idle sites whose estimates tie
// exactly, plus a fair-share manager wired into the scheduler.
func twinSiteScheduler(t *testing.T) (*Scheduler, *fairshare.Manager) {
	t.Helper()
	g := simgrid.NewGrid(time.Second, 1)
	fs := fairshare.NewManager(fairshare.Config{Clock: g.Engine.Clock(), HalfLife: -1})
	sched := New(Config{Grid: g, FairShare: fs})
	for _, name := range []string{"siteA", "siteB"} {
		site := g.AddSite(name)
		pool := condor.NewPool(name, g, site)
		n := site.AddNode(g.Engine, name+"-n0", 1.0, simgrid.IdleLoad())
		pool.AddMachine(n, nil)
		sched.RegisterSite(name, &SiteServices{
			Pool:    pool,
			Runtime: estimator.NewRuntimeEstimator(estimator.NewHistory(0)),
		})
	}
	return sched, fs
}

func TestTypedNilFairShareMeansDisabled(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	var none *fairshare.Manager
	sched := New(Config{Grid: g, FairShare: none})
	site := g.AddSite("siteA")
	pool := condor.NewPool("siteA", g, site)
	n := site.AddNode(g.Engine, "siteA-n0", 1.0, simgrid.IdleLoad())
	pool.AddMachine(n, nil)
	sched.RegisterSite("siteA", &SiteServices{Pool: pool})
	if best, _, err := sched.SelectSiteFor("alice", task("t", 100), nil); err != nil || best.Site != "siteA" {
		t.Fatalf("typed-nil fair-share: best = %+v, err = %v", best, err)
	}
}

func TestSelectSiteFairShareTieBreak(t *testing.T) {
	sched, fs := twinSiteScheduler(t)
	// Fresh tenant, tied scores: deterministic name order wins.
	best, all, err := sched.SelectSiteFor("alice", task("t", 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || best.Site != "siteA" {
		t.Fatalf("fresh tenant best = %+v (all %+v)", best, all)
	}
	// Alice has burned CPU at siteA recently: the tie now breaks to siteB.
	fs.RecordUsage("alice", "siteA", 500)
	best, _, err = sched.SelectSiteFor("alice", task("t", 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.Site != "siteB" {
		t.Fatalf("standing tie-break chose %s, want siteB", best.Site)
	}
	// Other tenants and owner-less selection are unaffected.
	if best, _, _ := sched.SelectSiteFor("bob", task("t", 100), nil); best.Site != "siteA" {
		t.Fatalf("bob best = %s, want siteA", best.Site)
	}
	if best, _, _ := sched.SelectSite(task("t", 100), nil); best.Site != "siteA" {
		t.Fatalf("owner-less best = %s, want siteA", best.Site)
	}
}

func TestFairShareTieBreakRespectsMargin(t *testing.T) {
	sched, fs := twinSiteScheduler(t)
	fs.RecordUsage("alice", "siteA", 500)
	// Give siteB a decisively worse runtime estimate: ~200 s of history
	// versus the 100 s ReqHours hint siteA falls back to. Standing must
	// not override a real score gap.
	svcB, _ := sched.SiteServicesFor("siteB")
	for i := 0; i < 4; i++ {
		rec := estimator.TaskRecord{
			Account: "a", Login: "a", Queue: "q", Partition: "p", Nodes: 1,
			JobType: "batch", Succeeded: true, ReqHours: 100.0 / 3600,
			Submitted: t0(i), Started: t0(i), Completed: t0(i).Add(200 * time.Second),
			RuntimeSeconds: 200,
		}
		if err := svcB.Runtime.History.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	best, all, err := sched.SelectSiteFor("alice", task("t", 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.Site != "siteA" {
		t.Fatalf("best = %s (all %+v): tie-break overrode a real score gap", best.Site, all)
	}
}

func t0(i int) time.Time {
	return time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Hour)
}
