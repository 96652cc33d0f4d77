package condor

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
	"repro/internal/telemetry"
)

// The driver equivalence suite: identically seeded scenarios must produce
// byte-identical job traces (every state transition with its timestamp),
// assignments, and accounting whether a span is run as one RunFor call or
// cut into one RunFor call per tick. This is the contract that lets a
// caller advance by whatever spans it likes: nothing observable may depend
// on where the engine is asked to stop.

// StepFor is Engine.RunFor cut into one call per tick: the fixed-tick loop
// whose traces a single RunFor must reproduce. Exported for the package's
// external tests.
func StepFor(e *simgrid.Engine, d time.Duration) {
	for n := (d + e.Tick() - 1) / e.Tick(); n > 0; n-- {
		e.RunFor(e.Tick())
	}
}

// driverTrace is one run's complete observable footprint.
type driverTrace struct {
	events   []Event
	outcomes []JobInfo
}

func (tr *driverTrace) diff(other *driverTrace) string {
	if len(tr.events) != len(other.events) {
		return fmt.Sprintf("event count %d vs %d", len(tr.events), len(other.events))
	}
	for i := range tr.events {
		if tr.events[i] != other.events[i] {
			return fmt.Sprintf("event %d: %+v vs %+v", i, tr.events[i], other.events[i])
		}
	}
	if len(tr.outcomes) != len(other.outcomes) {
		return fmt.Sprintf("job count %d vs %d", len(tr.outcomes), len(other.outcomes))
	}
	for i := range tr.outcomes {
		a, b := tr.outcomes[i], other.outcomes[i]
		if a != b {
			return fmt.Sprintf("job %s/%d: %+v vs %+v", a.Pool, a.ID, a, b)
		}
	}
	return ""
}

// collectOutcomes snapshots every job of every pool, in pool order.
func collectOutcomes(t *testing.T, pools ...*Pool) []JobInfo {
	t.Helper()
	var out []JobInfo
	for _, p := range pools {
		infos, err := p.Jobs()
		if err != nil {
			t.Fatalf("jobs: %v", err)
		}
		out = append(out, infos...)
	}
	return out
}

// runDriverParityScenario replays the golden-parity workload (flocking,
// fair-share ordering, Requirements constraints, checkpoint-complete
// migrants, fault injection) advancing the clock with runFor, with
// submissions arriving through engine timers so both runs see the
// identical input schedule.
func runDriverParityScenario(t *testing.T, seed int64, runFor func(*simgrid.Engine, time.Duration)) *driverTrace {
	t.Helper()
	g := simgrid.NewGrid(time.Second, 1)
	siteA, siteB := g.AddSite("siteA"), g.AddSite("siteB")
	poolA, poolB := NewPool("poolA", g, siteA), NewPool("poolB", g, siteB)
	poolA.EnableFlocking(poolB)
	poolB.EnableFlocking(poolA)

	for i := 0; i < 10; i++ {
		arch := "x86"
		if i%3 == 0 {
			arch = "sparc"
		}
		load := simgrid.ConstantLoad(float64(i%5) / 10)
		adA := classad.New().Set("Arch", arch).Set("Disk", 100+40*i)
		poolA.AddMachine(siteA.AddNode(g.Engine, fmt.Sprintf("a%02d", i), float64(1+i%3), load), adA)
		adB := classad.New().Set("Arch", arch).Set("Disk", 80+60*i)
		adB.MustSetExpr(AttrRequirements, "TARGET.ImageSize <= 320")
		poolB.AddMachine(siteB.AddNode(g.Engine, fmt.Sprintf("b%02d", i), float64(1+i%4), load), adB)
	}

	for _, p := range []*Pool{poolA, poolB} {
		mgr := fairshare.NewManager(fairshare.Config{
			Clock:    g.Engine.Clock(),
			HalfLife: time.Minute,
		})
		p.SetFairShare(mgr)
	}

	tr := &driverTrace{}
	for _, p := range []*Pool{poolA, poolB} {
		p.Subscribe(func(e Event) { tr.events = append(tr.events, e) })
	}

	pools := []*Pool{poolA, poolB}
	for _, s := range parityWorkload(seed) {
		s := s
		g.Engine.Schedule(time.Duration(s.tick)*time.Second, func(time.Time) {
			var err error
			if s.ckptCPU > 0 {
				_, err = pools[s.pool].SubmitCheckpointed(s.ad, s.ckptCPU)
			} else {
				_, err = pools[s.pool].Submit(s.ad)
			}
			if err != nil {
				t.Errorf("submit: %v", err)
			}
		})
	}
	runFor(g.Engine, 400*time.Second)
	tr.outcomes = collectOutcomes(t, poolA, poolB)
	return tr
}

// TestDriverEquivalenceParitySeeds pins the engine's core promise on the
// condor parity seeds: one RunFor reproduces a per-tick RunFor loop's
// traces transition for transition.
func TestDriverEquivalenceParitySeeds(t *testing.T) {
	for _, seed := range []int64{7, 42, 216} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			tick := runDriverParityScenario(t, seed, StepFor)
			ev := runDriverParityScenario(t, seed, (*simgrid.Engine).RunFor)
			if d := tick.diff(ev); d != "" {
				t.Fatalf("a per-tick RunFor loop and one RunFor diverged: %s", d)
			}
			if len(tick.events) == 0 {
				t.Fatal("scenario produced no events; equivalence test is vacuous")
			}
		})
	}
}

// TestDriverEquivalenceSparseLongHorizon is the sparse case the event
// engine exists for: a long-horizon run with a handful of long jobs.
// RunFor must visit orders of magnitude fewer boundaries than the span
// has ticks, and a per-tick loop must leave the identical trace.
func TestDriverEquivalenceSparseLongHorizon(t *testing.T) {
	const span = 200000 * time.Second
	run := func(runFor func(*simgrid.Engine, time.Duration)) (*driverTrace, int64) {
		g := simgrid.NewGrid(time.Second, 1)
		site := g.AddSite("s")
		pool := NewPool("s", g, site)
		for i := 0; i < 16; i++ {
			pool.AddMachine(site.AddNode(g.Engine, fmt.Sprintf("n%02d", i), 1, simgrid.ConstantLoad(0.25)), nil)
		}
		tr := &driverTrace{}
		pool.Subscribe(func(e Event) { tr.events = append(tr.events, e) })
		for i := 0; i < 8; i++ {
			if _, err := pool.Submit(classad.New().Set(AttrOwner, "u").Set(AttrCpuSeconds, 50000.0)); err != nil {
				t.Fatal(err)
			}
		}
		runFor(g.Engine, span)
		tr.outcomes = collectOutcomes(t, pool)
		return tr, g.Engine.Ticks()
	}
	tick, _ := run(StepFor)
	ev, evBoundaries := run((*simgrid.Engine).RunFor)
	if d := tick.diff(ev); d != "" {
		t.Fatalf("a per-tick RunFor loop and one RunFor diverged: %s", d)
	}
	for _, o := range tick.outcomes {
		if o.Status != StatusCompleted {
			t.Fatalf("job %d not completed (%v); scenario broken", o.ID, o.Status)
		}
	}
	if ticks := int64(span / time.Second); evBoundaries*100 > ticks {
		t.Fatalf("RunFor visited %d boundaries of %d ticks — expected ≥100x sparser", evBoundaries, ticks)
	}
}

// TestPoolWakesOnlyForNews pins the wake policy at its smallest: on one
// machine a backlog of n jobs costs the first negotiation plus one wake
// per completion — the pool's own placement marks nothing dirty and
// requests nothing, and a completion requests its wake once. Changes made
// by anyone else (a foreign task placed or completed, a job submitted or
// removed through the API) wake it as ever.
func TestPoolWakesOnlyForNews(t *testing.T) {
	g, p := testPool(t, 1)
	reg := telemetry.NewRegistry()
	p.SetTelemetry(reg)
	p.SetFairShare(fairshare.NewManager(fairshare.Config{Clock: g.Engine.Clock(), HalfLife: time.Hour}))
	const n = 5
	for i := 0; i < n; i++ {
		mustSubmit(t, p, jobAd("alice", 10, 0))
	}
	g.Engine.RunFor(200 * time.Second)
	wakes := func() (total, idle float64) {
		snap := reg.Snapshot()
		return snap.Total("pool_wakes_total"), snap.Total("pool_idle_wakes_total")
	}
	total, idle := wakes()
	if total != n+1 || idle != 0 {
		t.Fatalf("%d jobs on one machine: %v wakes (%v idle), want %d and 0", n, total, idle, n+1)
	}
	if got := reg.Snapshot().Total("negotiation_matches_total"); got != n {
		t.Fatalf("matched %v jobs, want %d", got, n)
	}
	dirty := len(p.dirty)
	if dirty != 0 {
		t.Fatalf("%d nodes marked dirty by the pool's own placements and completions", dirty)
	}

	// News from outside still wakes the pool, once each.
	node := p.machines[0].node
	for _, news := range []struct {
		what string
		do   func()
	}{
		{"a foreign placement", func() { node.Place(simgrid.NewTask(6, nil)) }},
		{"a foreign completion", func() { g.Engine.RunFor(10 * time.Second) }},
		{"a submission", func() { mustSubmit(t, p, jobAd("bob", 1000, 0)) }},
		{"an API removal of a running job", func() {
			if err := p.Remove(n + 1); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		before, _ := wakes()
		news.do()
		g.Engine.RunFor(5 * time.Second)
		if after, _ := wakes(); after == before {
			t.Errorf("%s did not wake the pool", news.what)
		}
	}
}
