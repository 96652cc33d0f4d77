package scheduler

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/estimator"
	"repro/internal/monalisa"
	"repro/internal/simgrid"
)

// Tests for input staging over the network flow model: the aborted-plan
// double-submit regression and tick-vs-event parity for a staging storm
// on a shared link with a mid-flight utilization change.

// TestStagingAbortedTaskNotSubmitted is the regression test for the
// staging double-submit bug: when a later input in the staging loop fails
// — whether at resolution (no site, no catalog) or at transfer start
// (missing link) — the task is marked failed, but the transfers already
// in flight still complete, and their callbacks used to drain pending to
// zero and submit the failed task anyway.
func TestStagingAbortedTaskNotSubmitted(t *testing.T) {
	cases := []struct {
		name string
		bad  FileRef
	}{
		// resolveInput error, before any pending bookkeeping: this was the
		// live double-submit path.
		{"unresolvable-input", FileRef{Name: "lost.root"}},
		// StartTransfer error on a link that does not exist: the second
		// input names a site unlinked to the execution site.
		{"missing-link", FileRef{Name: "lost.root", Site: "siteC", SizeMB: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := simgrid.NewGrid(time.Second, 1)
			sched := New(Config{Grid: g})
			for _, name := range []string{"siteA", "siteB", "siteC"} {
				g.AddSite(name)
			}
			// Execution only at siteB; the first input stages from siteA
			// over a working link, the second fails.
			site := g.Site("siteB")
			pool := condor.NewPool("siteB", g, site)
			pool.AddMachine(site.AddNode(g.Engine, "n", 1, simgrid.IdleLoad()), nil)
			sched.RegisterSite("siteB", &SiteServices{Pool: pool})
			g.Network.Connect("siteA", "siteB", simgrid.Link{BandwidthMBps: 10})
			g.Site("siteA").Storage().Put("good.root", 100)

			tk := task("t1", 10)
			tk.Inputs = []FileRef{
				{Name: "good.root", Site: "siteA", SizeMB: 100},
				c.bad,
			}
			cp, err := sched.Submit(simplePlan("alice", tk))
			if err != nil {
				t.Fatal(err)
			}
			a, _ := cp.Assignment("t1")
			if a.State != TaskFailed {
				t.Fatalf("state after failed staging = %v, want failed", a.State)
			}
			// Let the first input's in-flight transfer land (10s at
			// 10 MB/s): its callback must not resurrect the aborted plan.
			g.Engine.RunFor(15 * time.Second)
			if _, ok := g.Site("siteB").Storage().Get("good.root"); !ok {
				t.Fatal("surviving transfer never landed; test exercises nothing")
			}
			a, _ = cp.Assignment("t1")
			if a.State != TaskFailed {
				t.Fatalf("state after surviving transfer landed = %v, want failed", a.State)
			}
			jobs, err := pool.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != 0 {
				t.Fatalf("aborted task was submitted anyway: %+v", jobs)
			}
		})
	}
}

// stepFor and stepUntil are Engine.RunFor and Engine.RunUntil cut into
// one RunFor call per tick: the fixed-tick loop whose traces the whole
// spans must reproduce.
func stepFor(e *simgrid.Engine, d time.Duration) {
	for n := (d + e.Tick() - 1) / e.Tick(); n > 0; n-- {
		e.RunFor(e.Tick())
	}
}

func stepUntil(e *simgrid.Engine, pred func() bool, max time.Duration) error {
	for deadline := e.Now().Add(max); !pred(); e.RunFor(e.Tick()) {
		if e.Now().After(deadline) {
			return fmt.Errorf("condition not reached within %v", max)
		}
	}
	return nil
}

// runStagingStorm drives a staging storm, advancing the clock with runFor
// and until (one tick per call, or whole spans): two tasks,
// four 50MB inputs, all staged from siteA to siteB over one shared
// 10MB/s link, with background utilization jumping to 0.5 mid-staging.
// The trace captures assignments, pool job snapshots, and the staged
// replica set.
func runStagingStorm(t *testing.T, runFor func(*simgrid.Engine, time.Duration),
	until func(*simgrid.Engine, func() bool, time.Duration) error) []string {
	t.Helper()
	g := simgrid.NewGrid(time.Second, 1)
	repo := monalisa.NewRepository()
	sched := New(Config{Grid: g, Monitor: repo})
	pools := map[string]*condor.Pool{}
	for _, name := range []string{"siteA", "siteB"} {
		site := g.AddSite(name)
		pool := condor.NewPool(name, g, site)
		pool.AddMachine(site.AddNode(g.Engine, name+"-n", 1, simgrid.IdleLoad()), nil)
		pools[name] = pool
		sched.RegisterSite(name, &SiteServices{
			Pool:    pool,
			Runtime: estimator.NewRuntimeEstimator(estimator.NewHistory(0)),
		})
	}
	link := simgrid.Link{BandwidthMBps: 10}
	g.Network.Connect("siteA", "siteB", link)
	monalisa.NewFarmMonitor(repo, g, 5*time.Second)
	for i := 0; i < 4; i++ {
		g.Site("siteA").Storage().Put(fmt.Sprintf("d%d.root", i), 50)
	}
	// Backlog siteA so both tasks place at siteB and must stage.
	for i := 0; i < 4; i++ {
		if _, err := pools["siteA"].Submit(jobAdForTest("bg", 5000)); err != nil {
			t.Fatal(err)
		}
	}
	runFor(g.Engine, 2*time.Second)

	t1 := task("t1", 20)
	t1.Inputs = []FileRef{
		{Name: "d0.root", Site: "siteA", SizeMB: 50},
		{Name: "d1.root", Site: "siteA", SizeMB: 50},
	}
	t2 := task("t2", 20)
	t2.Inputs = []FileRef{
		{Name: "d2.root", Site: "siteA", SizeMB: 50},
		{Name: "d3.root", Site: "siteA", SizeMB: 50},
	}
	cp, err := sched.Submit(simplePlan("alice", t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	// Mid-staging, the shared link loses half its capacity to background
	// traffic.
	link.Utilization = 0.5
	g.Engine.Schedule(6*time.Second, func(time.Time) { g.Network.Connect("siteA", "siteB", link) })
	if err := until(g.Engine, func() bool { d, ok := cp.Done(); return d && ok }, 10*time.Minute); err != nil {
		t.Fatal(err)
	}

	var trace []string
	for _, id := range []string{"t1", "t2"} {
		a, _ := cp.Assignment(id)
		trace = append(trace, fmt.Sprintf("%s: %+v", id, a))
	}
	for _, name := range []string{"siteA", "siteB"} {
		jobs, err := pools[name].Jobs()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			trace = append(trace, fmt.Sprintf("%s job %+v", name, j))
		}
	}
	for i := 0; i < 4; i++ {
		if f, ok := g.Site("siteB").Storage().Get(fmt.Sprintf("d%d.root", i)); ok {
			trace = append(trace, fmt.Sprintf("replica %+v", f))
		}
	}
	return trace
}

// TestStagingStormParityTickVsEvent: concurrent staging on a shared link
// plus a mid-flight utilization change must leave byte-identical traces
// whether the clock advances one tick per RunFor call or a whole span.
func TestStagingStormParityTickVsEvent(t *testing.T) {
	tick := runStagingStorm(t, stepFor, stepUntil)
	ev := runStagingStorm(t, (*simgrid.Engine).RunFor, (*simgrid.Engine).RunUntil)
	if len(tick) != len(ev) {
		t.Fatalf("trace lengths diverged: %d vs %d\n tick: %v\n event: %v", len(tick), len(ev), tick, ev)
	}
	for i := range tick {
		if tick[i] != ev[i] {
			t.Errorf("trace line %d diverged:\n tick:  %s\n event: %s", i, tick[i], ev[i])
		}
	}
	// The storm must actually have staged replicas at siteB.
	found := 0
	for _, line := range tick {
		if len(line) > 7 && line[:7] == "replica" {
			found++
		}
	}
	if found != 4 {
		t.Fatalf("staged %d replicas at siteB, want 4:\n%v", found, tick)
	}
}
