package scheduler

import (
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/simgrid"
)

// TestSubmitDegradesWhenOraclesDown pins graceful degradation: with no
// monitor to read a load from and no similar history at the site, a submit
// must still place and run the task — scored with zero load and the plan's
// own runtime hint — instead of surfacing the gap to the user.
func TestSubmitDegradesWhenOraclesDown(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("siteA")
	pool := condor.NewPool("siteA", g, site)
	pool.AddMachine(site.AddNode(g.Engine, "siteA-n0", 1.0, nil), nil)
	s := New(Config{Grid: g})
	s.RegisterSite("siteA", &SiteServices{Pool: pool})

	cp, err := s.Submit(simplePlan("alice", task("t1", 30)))
	if err != nil {
		t.Fatalf("submit with oracles down: %v", err)
	}
	a, ok := cp.Assignment("t1")
	if !ok {
		t.Fatal("task t1 has no assignment")
	}
	if a.Estimates.Load != 0 {
		t.Fatalf("load = %v, want 0 (no monitor must not contribute)", a.Estimates.Load)
	}
	// task() sets ReqHours = cpu/3600, so the fallback runtime is cpu.
	if a.Estimates.RuntimeSeconds != 30 {
		t.Fatalf("runtime estimate = %v, want 30 (ReqHours fallback)", a.Estimates.RuntimeSeconds)
	}
	if err := g.Engine.RunUntil(func() bool { d, _ := cp.Done(); return d }, time.Hour); err != nil {
		t.Fatal(err)
	}
	if done, succeeded := cp.Done(); !done || !succeeded {
		t.Fatalf("plan done=%v succeeded=%v, want clean completion", done, succeeded)
	}
}
