package condor

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
)

// Driver parity across load-segment boundaries: machines whose
// background load steps (StepLoad) or cycles (DiurnalLoad) gate matching
// through LoadAvg requirements, so a job can only start once a segment
// boundary lowers the load. The pool computes those boundaries
// analytically (loadWakeAt); a per-tick RunFor loop asks the engine to
// stop at every boundary anyway. Their traces must be byte-identical, and
// the event run must stay sparse when every load is piecewise. A
// NoisyLoad machine is a segment a second, through the same path.

// piecewiseScenario is the scenario, built and not yet run: mgr is the
// fair-share policy installed on pool, tr collects the pool's transitions.
type piecewiseScenario struct {
	g    *simgrid.Grid
	pool *Pool
	mgr  *fairshare.Manager
	tr   *driverTrace
}

// buildPiecewiseScenario builds the scenario with a policy of the given
// half-life. ahead, when set, runs on the fresh engine before anything
// registers with it: what it registers gets its turn ahead of the pool.
func buildPiecewiseScenario(t *testing.T, noisy bool, halfLife time.Duration, ahead func(*simgrid.Engine)) *piecewiseScenario {
	t.Helper()
	epoch := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	g := simgrid.NewGrid(time.Second, 1)
	if ahead != nil {
		ahead(g.Engine)
	}
	site := g.AddSite("s")
	pool := NewPool("s", g, site)

	step := simgrid.StepLoad(epoch,
		[]time.Duration{100 * time.Second, 300 * time.Second, 900 * time.Second},
		[]float64{0.9, 0.2, 0.7, 0.1})
	for i := 0; i < 3; i++ {
		pool.AddMachine(site.AddNode(g.Engine, fmt.Sprintf("step%d", i), 1, step), nil)
	}
	for i := 0; i < 2; i++ {
		pool.AddMachine(site.AddNode(g.Engine, fmt.Sprintf("diurnal%d", i), 2, simgrid.DiurnalLoad(0.3, 0.4, 0)), nil)
	}
	if noisy {
		pool.AddMachine(site.AddNode(g.Engine, "noisy", 1, simgrid.NoisyLoad(simgrid.ConstantLoad(0.4), 0.2, 5)), nil)
	}

	mgr := fairshare.NewManager(fairshare.Config{Clock: g.Engine.Clock(), HalfLife: halfLife})
	pool.SetFairShare(mgr)

	tr := &driverTrace{}
	pool.Subscribe(func(e Event) { tr.events = append(tr.events, e) })

	owners := []string{"alice", "bob", "carol"}
	for i := 0; i < 18; i++ {
		i := i
		at := time.Duration(3+7*i) * time.Second
		g.Engine.Schedule(at, func(time.Time) {
			ad := classad.New().
				Set(AttrOwner, owners[i%len(owners)]).
				Set(AttrCpuSeconds, float64(40+10*(i%5))).
				Set(AttrPriority, i%3)
			if i%2 == 0 {
				// Only matchable once a segment boundary drops the load.
				ad.MustSetExpr(AttrRequirements, "TARGET.LoadAvg < 0.5")
			}
			if _, err := pool.Submit(ad); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		})
	}
	return &piecewiseScenario{g, pool, mgr, tr}
}

func runPiecewiseParityScenario(t *testing.T, runFor func(*simgrid.Engine, time.Duration), noisy bool) (*driverTrace, int64) {
	t.Helper()
	sc := buildPiecewiseScenario(t, noisy, time.Minute, nil)
	runFor(sc.g.Engine, 3*time.Hour)
	sc.tr.outcomes = collectOutcomes(t, sc.pool)
	return sc.tr, sc.g.Engine.Ticks()
}

func TestDriverEquivalencePiecewiseLoads(t *testing.T) {
	tick, _ := runPiecewiseParityScenario(t, StepFor, false)
	ev, evN := runPiecewiseParityScenario(t, (*simgrid.Engine).RunFor, false)
	if d := tick.diff(ev); d != "" {
		t.Fatalf("a per-tick RunFor loop and one RunFor diverged: %s", d)
	}
	completed := 0
	for _, o := range tick.outcomes {
		if o.Status == StatusCompleted {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("no job completed; scenario is vacuous")
	}
	// Piecewise loads everywhere: the event run wakes for the jobs' events
	// and at the ends of load segments while something waits on one — a
	// machine for an idle job, or a running job's usage flow — never at a
	// tick for being a tick: 69 boundaries of 10 800 (430 while the flows of
	// jobs on these machines were accrued tick by tick).
	if ticks := int64(3 * time.Hour / time.Second); evN*100 > ticks {
		t.Fatalf("RunFor visited %d boundaries of %d ticks — expected ≥100x sparser", evN, ticks)
	}
}

func TestDriverEquivalenceOpaqueLoadFallback(t *testing.T) {
	tick, _ := runPiecewiseParityScenario(t, StepFor, true)
	ev, _ := runPiecewiseParityScenario(t, (*simgrid.Engine).RunFor, true)
	if d := tick.diff(ev); d != "" {
		t.Fatalf("a per-tick RunFor loop and one RunFor diverged with a noisy load present: %s", d)
	}
}
