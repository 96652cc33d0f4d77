package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/scheduler"
	"repro/internal/simgrid"
	"repro/internal/steering"
	"repro/internal/vtime"
)

// The core-level half of the driver equivalence suite: a full deployment
// (scheduler site selection, input staging over the network, MonALISA
// sampling, steering with an automatic migration, fault injection with
// resubmission) must produce identical assignments, job footprints, and
// notifications whether the span runs as Run's Advance loop, as one
// RunFor call per tick, or as one RunFor call.

type coreTrace struct {
	assignments []scheduler.Assignment
	jobs        []string // formatted job snapshots per site, in site order
	notes       []steering.Notification
}

func runCoreScenario(t *testing.T, run func(*GAE, time.Duration)) *coreTrace {
	t.Helper()
	// 40 s in, the site the main task runs at develops heavy load: the
	// steering service should detect the slow execution rate and migrate
	// the main task.
	heavy := simgrid.StepLoad(vtime.Epoch, []time.Duration{40 * time.Second}, []float64{0, 0.9})
	g := New(Config{
		Sites: []SiteSpec{
			{Name: "siteA", Nodes: 2, Load: heavy, CostPerCPUSecond: 0.05},
			{Name: "siteB", Nodes: 2, CostPerCPUSecond: 0.02},
		},
		Links: []LinkSpec{{A: "siteA", B: "siteB", MBps: 10, LatencyMS: 100}},
		Users: []UserSpec{{Name: "physicist", Password: "pw", Credits: 1e6}},
	})
	g.Steering.PollInterval = 5 * time.Second

	// Input dataset at site A only, so a site-B assignment must stage it.
	if err := g.PutDataset("siteA", "hits.root", 200); err != nil {
		t.Fatal(err)
	}

	cp, err := g.Scheduler.Submit(&scheduler.JobPlan{
		Name: "analysis", Owner: "physicist",
		Tasks: []scheduler.TaskPlan{
			{ID: "prep", CPUSeconds: 30, Queue: "short", Nodes: 1, OutputFile: "prep.out", OutputMB: 50},
			{ID: "main", CPUSeconds: 120, Queue: "short", Nodes: 1, DependsOn: []string{"prep"},
				Inputs: []scheduler.FileRef{{Name: "hits.root", Site: "siteA", SizeMB: 200}}, Checkpointable: true},
			{ID: "flaky", CPUSeconds: 60, Queue: "short", Nodes: 1, FailAfterCPU: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	run(g, 600*time.Second)

	tr := &coreTrace{notes: g.Steering.Notifications("physicist")}
	for _, task := range []string{"prep", "main", "flaky"} {
		a, ok := cp.Assignment(task)
		if !ok {
			t.Fatalf("assignment missing for %s", task)
		}
		tr.assignments = append(tr.assignments, a)
	}
	for _, site := range g.Sites() {
		pool, _ := g.Pool(site)
		jobs, err := pool.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			tr.jobs = append(tr.jobs, fmt.Sprintf("%+v", j))
		}
	}
	return tr
}

func TestDriverEquivalenceCoreScenario(t *testing.T) {
	ev := runCoreScenario(t, (*GAE).Run)
	moved := false
	for _, n := range ev.notes {
		moved = moved || n.Task == "main" && n.Kind == "moved" && strings.Contains(n.Message, "siteA → siteB (slow execution rate")
	}
	if !moved {
		t.Fatalf("the main task was not steered off the loaded siteA; the scenario tests nothing:\n%+v", ev.notes)
	}
	for _, leg := range []struct {
		name string
		run  func(*GAE, time.Duration)
	}{
		{"one RunFor per tick", func(g *GAE, d time.Duration) {
			for n := d / g.Grid.Engine.Tick(); n > 0; n-- {
				g.Grid.Engine.RunFor(g.Grid.Engine.Tick())
			}
		}},
		{"one RunFor", func(g *GAE, d time.Duration) { g.Grid.Engine.RunFor(d) }},
	} {
		diffCoreTraces(t, leg.name, runCoreScenario(t, leg.run), ev)
	}
}

// diffCoreTraces reports where got, the trace of the leg named leg,
// departs from want, Run's.
func diffCoreTraces(t *testing.T, leg string, got, want *coreTrace) {
	t.Helper()
	if len(got.assignments) != len(want.assignments) {
		t.Fatalf("%s: %d assignments, Run %d", leg, len(got.assignments), len(want.assignments))
	}
	for i := range got.assignments {
		a, b := got.assignments[i], want.assignments[i]
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Errorf("%s: assignment %d diverged:\n got: %+v\n Run: %+v", leg, i, a, b)
		}
	}
	if len(got.jobs) != len(want.jobs) {
		t.Fatalf("%s: %d jobs, Run %d", leg, len(got.jobs), len(want.jobs))
	}
	for i := range got.jobs {
		if got.jobs[i] != want.jobs[i] {
			t.Errorf("%s: job %d diverged:\n got: %s\n Run: %s", leg, i, got.jobs[i], want.jobs[i])
		}
	}
	if len(got.notes) != len(want.notes) {
		t.Fatalf("%s: %d notifications, Run %d\n got: %+v\n Run: %+v",
			leg, len(got.notes), len(want.notes), got.notes, want.notes)
	}
	for i := range got.notes {
		if got.notes[i] != want.notes[i] {
			t.Errorf("%s: notification %d diverged:\n got: %+v\n Run: %+v", leg, i, got.notes[i], want.notes[i])
		}
	}
}
