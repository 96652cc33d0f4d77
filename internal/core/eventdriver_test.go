package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/scheduler"
	"repro/internal/simgrid"
	"repro/internal/steering"
)

// The core-level half of the driver equivalence suite: a full deployment
// (scheduler site selection, input staging over the network, MonALISA
// sampling, steering with an automatic migration, fault injection with
// resubmission) must produce identical assignments, job footprints, and
// notifications whether the engine runs one RunFor call per tick or
// Run's Advance loop over the whole span.

type coreTrace struct {
	assignments []scheduler.Assignment
	jobs        []string // formatted job snapshots per site, in site order
	notes       []steering.Notification
}

func runCoreScenario(t *testing.T, run func(*GAE, time.Duration)) *coreTrace {
	t.Helper()
	g := New(Config{
		Sites: []SiteSpec{
			{Name: "siteA", Nodes: 2, CostPerCPUSecond: 0.05},
			{Name: "siteB", Nodes: 2, CostPerCPUSecond: 0.02},
		},
		Links: []LinkSpec{{A: "siteA", B: "siteB", MBps: 10, LatencyMS: 100}},
		Users: []UserSpec{{Name: "physicist", Password: "pw", Credits: 1e6}},
	})
	g.Steering.PollInterval = 5 * time.Second
	g.Steering.MinObservation = 20 * time.Second

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

	// Mid-run, the first site develops heavy load: the steering service
	// should detect the slow execution rate and migrate the main task.
	g.Grid.Engine.Schedule(40*time.Second, func(time.Time) {
		if a, ok := cp.Assignment("main"); ok && a.Site != "" {
			for _, n := range g.Grid.Site(a.Site).Nodes() {
				n.SetLoad(simgrid.ConstantLoad(0.9))
			}
		}
	})

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
	tick := runCoreScenario(t, func(g *GAE, d time.Duration) {
		for n := d / g.Grid.Engine.Tick(); n > 0; n-- {
			g.Grid.Engine.RunFor(g.Grid.Engine.Tick())
		}
	})
	ev := runCoreScenario(t, (*GAE).Run)

	if len(tick.assignments) != len(ev.assignments) {
		t.Fatalf("assignment counts diverged: %d vs %d", len(tick.assignments), len(ev.assignments))
	}
	for i := range tick.assignments {
		a, b := tick.assignments[i], ev.assignments[i]
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Errorf("assignment %d diverged:\n tick:  %+v\n event: %+v", i, a, b)
		}
	}
	if len(tick.jobs) != len(ev.jobs) {
		t.Fatalf("job counts diverged: %d vs %d", len(tick.jobs), len(ev.jobs))
	}
	for i := range tick.jobs {
		if tick.jobs[i] != ev.jobs[i] {
			t.Errorf("job %d diverged:\n tick:  %s\n event: %s", i, tick.jobs[i], ev.jobs[i])
		}
	}
	if len(tick.notes) != len(ev.notes) {
		t.Fatalf("notification counts diverged: %d vs %d\n tick: %+v\n event: %+v",
			len(tick.notes), len(ev.notes), tick.notes, ev.notes)
	}
	for i := range tick.notes {
		if tick.notes[i] != ev.notes[i] {
			t.Errorf("notification %d diverged:\n tick:  %+v\n event: %+v", i, tick.notes[i], ev.notes[i])
		}
	}
	if len(tick.notes) == 0 {
		t.Fatal("scenario produced no steering notifications; equivalence test is weaker than intended")
	}
}
