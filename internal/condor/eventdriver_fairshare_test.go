package condor_test

// The fair-share half of the tick-vs-event equivalence suite lives in an
// external test package: the scenario specs come from internal/workload,
// which (through the estimator) imports condor itself.

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/condor"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
	"repro/internal/workload"
)

// fsTrace is one run's observable footprint: every pool transition plus
// final job snapshots.
type fsTrace struct {
	events   []condor.Event
	outcomes []condor.JobInfo
}

func (tr *fsTrace) diff(other *fsTrace) string {
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
		if tr.outcomes[i] != other.outcomes[i] {
			return fmt.Sprintf("job %s/%d: %+v vs %+v", tr.outcomes[i].Pool, tr.outcomes[i].ID, tr.outcomes[i], other.outcomes[i])
		}
	}
	return ""
}

// runDriverFairshareScenario replays a multi-tenant fairness scenario
// (the same files the fairness simulator and benchmark replay) under the
// clock advanced by runFor and returns the full trace plus per-tenant
// completed CPU.
func runDriverFairshareScenario(t *testing.T, sc workload.FairnessScenario, runFor func(*simgrid.Engine, time.Duration)) (*fsTrace, map[string]float64) {
	t.Helper()
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("siteA")
	pool := condor.NewPool("siteA", g, site)
	for i := 0; i < sc.Machines; i++ {
		pool.AddMachine(site.AddNode(g.Engine, fmt.Sprintf("siteA-n%d", i), 1, nil), nil)
	}
	pools := []*condor.Pool{pool}
	if sc.FlockMachines > 0 {
		peerSite := g.AddSite("siteB")
		peer := condor.NewPool("siteB", g, peerSite)
		for i := 0; i < sc.FlockMachines; i++ {
			peer.AddMachine(peerSite.AddNode(g.Engine, fmt.Sprintf("siteB-n%d", i), 1, nil), nil)
		}
		pool.EnableFlocking(peer)
		pools = append(pools, peer)
	}
	fs := fairshare.NewManager(fairshare.Config{Clock: g.Engine.Clock()})
	for _, gr := range sc.Groups {
		fs.SetGroup(gr.Name, gr.Weight)
	}
	for _, tn := range sc.Tenants {
		fs.SetTenant(tn.Name, tn.Group, tn.Weight)
	}
	pool.SetFairShare(fs)

	tr := &fsTrace{}
	byTenant := make(map[string]float64)
	meta := make(map[int]workload.TenantSpec)
	pool.Subscribe(func(e condor.Event) {
		tr.events = append(tr.events, e)
		if e.To == condor.StatusCompleted {
			byTenant[meta[e.JobID].Name] += meta[e.JobID].JobCPUSeconds
		}
	})

	for tick := 0; tick < sc.Ticks; tick++ {
		for _, tn := range sc.Tenants {
			for n := tn.ArrivalsAt(tick); n > 0; n-- {
				g.Engine.Schedule(time.Duration(tick)*time.Second, func(time.Time) {
					ad := classad.New().
						Set(condor.AttrOwner, tn.Name).
						Set(condor.AttrCpuSeconds, tn.JobCPUSeconds).
						Set(condor.AttrPriority, tn.Priority)
					id, err := pool.Submit(ad)
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					meta[id] = tn
				})
			}
		}
	}
	runFor(g.Engine, time.Duration(sc.Ticks+60)*time.Second)
	for _, p := range pools {
		infos, err := p.Jobs()
		if err != nil {
			t.Fatalf("jobs: %v", err)
		}
		tr.outcomes = append(tr.outcomes, infos...)
	}
	return tr, byTenant
}

// TestDriverEquivalenceFairshareScenarios runs every multi-tenant
// fairness scenario file stepped and jumped: traces and
// per-tenant allocation metrics must match exactly — the fair-share
// accounting (decayed usage accrued tick by tick) is the most
// timing-sensitive consumer of the engine.
func TestDriverEquivalenceFairshareScenarios(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario files: %v", err)
	}
	for _, path := range paths {
		sc, err := workload.LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(sc.Name, func(t *testing.T) {
			tick, tickCPU := runDriverFairshareScenario(t, sc, condor.StepFor)
			ev, evCPU := runDriverFairshareScenario(t, sc, (*simgrid.Engine).RunFor)
			if d := tick.diff(ev); d != "" {
				t.Fatalf("stepping and event jumps diverged: %s", d)
			}
			if len(tickCPU) != len(evCPU) {
				t.Fatalf("tenant sets diverged: %v vs %v", tickCPU, evCPU)
			}
			for tenant, cpu := range tickCPU {
				if evCPU[tenant] != cpu {
					t.Errorf("tenant %s completed CPU %v (tick) vs %v (event)", tenant, cpu, evCPU[tenant])
				}
			}
			if len(tick.events) == 0 {
				t.Fatal("scenario produced no events; equivalence test is vacuous")
			}
		})
	}
}
