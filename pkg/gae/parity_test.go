package gae_test

// Transport parity: the same scripted scenarios run against two
// identically-seeded deployments — one through the local (in-process)
// transport, one through the remote (Clarens XML-RPC) transport — and
// every step must produce identical results. This pins the typed API
// redesign to today's observable behavior: whatever the wire loses or
// reshapes, these tests catch.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

func parityConfig() core.Config {
	return core.Config{
		Seed: 1,
		Sites: []core.SiteSpec{
			{Name: "siteA", Nodes: 1, CostPerCPUSecond: 0.10},
			{Name: "siteB", Nodes: 1, CostPerCPUSecond: 0.02},
		},
		Links: []core.LinkSpec{{A: "siteA", B: "siteB", MBps: 10}},
		Users: []core.UserSpec{
			{Name: "alice", Password: "pw", Credits: 1000},
			{Name: "root", Password: "rootpw", Admin: true},
		},
	}
}

// env is one deployment reachable through one transport.
type env struct {
	name string
	g    *core.GAE
	c    *gae.Client
	// other returns a second client for a different user (authorization
	// scenarios).
	other func(t *testing.T, user, pass string) *gae.Client
}

func newEnvs(t *testing.T) [2]env {
	t.Helper()
	ctx := context.Background()

	gl := core.New(parityConfig())
	local := env{
		name: "local",
		g:    gl,
		c:    gl.Client("alice"),
		other: func(_ *testing.T, user, _ string) *gae.Client {
			return gl.Client(user)
		},
	}

	gr := core.New(parityConfig())
	hs := httptest.NewServer(gr.Handler())
	t.Cleanup(hs.Close)
	gr.Clarens.SetBaseURL(hs.URL)
	rc, err := gae.Dial(ctx, hs.URL, gae.WithCredentials("alice", "pw"))
	if err != nil {
		t.Fatal(err)
	}
	remote := env{
		name: "remote",
		g:    gr,
		c:    rc,
		other: func(t *testing.T, user, pass string) *gae.Client {
			c, err := gae.Dial(ctx, hs.URL, gae.WithCredentials(user, pass))
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
	return [2]env{local, remote}
}

// trace records one scenario's observable outputs.
type trace struct {
	t     *testing.T
	env   string
	steps []string
}

// step records a labeled result plus its (normalized) error.
func (tr *trace) step(label string, v any, err error) {
	data, jerr := json.Marshal(v)
	if jerr != nil {
		tr.t.Fatalf("%s/%s: marshaling result: %v", tr.env, label, jerr)
	}
	tr.steps = append(tr.steps, label+" = "+string(data)+" err="+normErr(err))
}

// normErr reduces transport-specific error wrapping to the service-level
// message, so a local plain error and its remote application fault
// compare equal while auth faults stay distinguishable.
func normErr(err error) string {
	if err == nil {
		return ""
	}
	if f, ok := xmlrpc.AsFault(err); ok {
		if f.Code == xmlrpc.FaultAuth {
			return "auth: " + f.Message
		}
		return f.Message
	}
	return err.Error()
}

// runParity executes the scenario against both transports and requires
// step-for-step identical traces.
func runParity(t *testing.T, scenario func(t *testing.T, e env, tr *trace)) {
	t.Helper()
	envs := newEnvs(t)
	traces := [2]*trace{}
	for i, e := range envs {
		tr := &trace{t: t, env: e.name}
		scenario(t, e, tr)
		traces[i] = tr
	}
	a, b := traces[0], traces[1]
	if len(a.steps) != len(b.steps) {
		t.Fatalf("trace lengths differ: local=%d remote=%d", len(a.steps), len(b.steps))
	}
	for i := range a.steps {
		if a.steps[i] != b.steps[i] {
			t.Errorf("step %d diverges:\n local: %s\nremote: %s", i, a.steps[i], b.steps[i])
		}
	}
}

func parityPlan(name string, cpu float64) gae.PlanSpec {
	return core.PlanSpecOf(&scheduler.JobPlan{
		Name: name,
		Tasks: []scheduler.TaskPlan{{
			ID: "main", CPUSeconds: cpu,
			Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
			ReqHours: cpu / 3600, OutputFile: "out.dat", OutputMB: 1,
		}},
	})
}

func TestParityScheduler(t *testing.T) {
	runParity(t, func(t *testing.T, e env, tr *trace) {
		ctx := context.Background()
		sites, err := e.c.Sites(ctx)
		tr.step("sites", sites, err)

		plan := gae.PlanSpec{
			Name: "rpcplan",
			Tasks: []gae.TaskSpec{
				{ID: "a", CPUSeconds: 20, Queue: "short"},
				{ID: "b", CPUSeconds: 20, Queue: "short",
					DependsOn: []string{"a"}, OutputFile: "b.out", OutputMB: 3},
			},
		}
		name, err := e.c.Submit(ctx, plan)
		tr.step("submit", name, err)
		_, err = e.c.Submit(ctx, plan)
		tr.step("duplicate", nil, err)
		_, err = e.c.Submit(ctx, gae.PlanSpec{Name: "bad"})
		tr.step("invalid", nil, err)
		_, err = e.c.Plan(ctx, "ghost")
		tr.step("ghost", nil, err)

		e.g.Run(90 * time.Second)
		status, err := e.c.Plan(ctx, "rpcplan")
		tr.step("status", status, err)
		// Guard against a vacuous parity pass: the scenario must really
		// have executed the plan.
		if err != nil || !status.Done || !status.Succeeded || len(status.Tasks) != 2 {
			t.Fatalf("%s: plan did not complete: %+v, %v", e.name, status, err)
		}
	})
}

func TestParityJobMon(t *testing.T) {
	runParity(t, func(t *testing.T, e env, tr *trace) {
		ctx := context.Background()
		if _, err := e.c.Submit(ctx, parityPlan("p1", 200)); err != nil {
			t.Fatal(err)
		}
		e.g.Run(20 * time.Second)
		status, err := e.c.Plan(ctx, "p1")
		if err != nil {
			t.Fatal(err)
		}
		site, id := status.Tasks[0].Site, status.Tasks[0].CondorID

		info, err := e.c.Job(ctx, site, id)
		tr.step("info", info, err)
		if err != nil || info.Status != "running" || info.Owner != "alice" {
			t.Fatalf("%s: job not live: %+v, %v", e.name, info, err)
		}
		st, err := e.c.JobStatus(ctx, site, id)
		tr.step("status", st, err)
		prog, err := e.c.JobProgress(ctx, site, id)
		tr.step("progress", prog, err)
		wall, err := e.c.JobWallclock(ctx, site, id)
		tr.step("wallclock", wall, err)
		elapsed, err := e.c.JobElapsed(ctx, site, id)
		tr.step("elapsed", elapsed, err)
		rem, err := e.c.JobRemaining(ctx, site, id)
		tr.step("remaining", rem, err)
		qp, err := e.c.JobQueuePosition(ctx, site, id)
		tr.step("queueposition", qp, err)
		list, err := e.c.JobList(ctx, site)
		tr.step("list", list, err)
		pools, err := e.c.Pools(ctx)
		tr.step("pools", pools, err)
		_, err = e.c.Job(ctx, "ghost", 1)
		tr.step("ghostpool", nil, err)
	})
}

func TestParitySteering(t *testing.T) {
	runParity(t, func(t *testing.T, e env, tr *trace) {
		ctx := context.Background()
		e.g.Steering.AutoSteer = false
		if _, err := e.c.Submit(ctx, parityPlan("p1", 300)); err != nil {
			t.Fatal(err)
		}
		e.g.Run(5 * time.Second)

		jobs, err := e.c.Jobs(ctx)
		tr.step("jobs", jobs, err)
		st, err := e.c.TaskStatus(ctx, "p1", "main")
		tr.step("status", st, err)

		tr.step("pause", nil, e.c.Pause(ctx, "p1", "main"))
		e.g.Run(10 * time.Second)
		st2, err := e.c.TaskStatus(ctx, "p1", "main")
		tr.step("paused-status", st2, err)
		tr.step("resume", nil, e.c.Resume(ctx, "p1", "main"))

		target := "siteB"
		if st.Site == "siteB" {
			target = "siteA"
		}
		moved, err := e.c.Move(ctx, "p1", "main", target)
		tr.step("move", moved, err)
		tr.step("setprio", nil, e.c.SetPriority(ctx, "p1", "main", 7))
		sec, err := e.c.EstimateCompletion(ctx, "p1", "main")
		tr.step("estimate", sec, err)
		ns, err := e.c.Notifications(ctx)
		tr.step("notifications", ns, err)

		pref, err := e.c.Preference(ctx)
		tr.step("preference", pref, err)
		pref, err = e.c.SetPreference(ctx, "cheap")
		tr.step("setpreference", pref, err)
		_, err = e.c.SetPreference(ctx, "nonsense")
		tr.step("badpreference", nil, err)

		// A different non-admin user may not steer alice's task; an admin
		// may. Both transports must agree on both outcomes.
		e.g.Clarens.Users.Add("mallory", "mpw") //nolint:errcheck
		mallory := e.other(t, "mallory", "mpw")
		tr.step("mallory-kill", nil, mallory.Kill(ctx, "p1", "main"))
		admin := e.other(t, "root", "rootpw")
		tr.step("admin-pause", nil, admin.Pause(ctx, "p1", "main"))
		tr.step("admin-resume", nil, admin.Resume(ctx, "p1", "main"))
	})
}

func TestParityEstimator(t *testing.T) {
	runParity(t, func(t *testing.T, e env, tr *trace) {
		ctx := context.Background()
		// Train one site's history by completing a plan there.
		if _, err := e.c.Submit(ctx, parityPlan("warmup", 120)); err != nil {
			t.Fatal(err)
		}
		cp, _ := e.g.Scheduler.Plan("warmup")
		if err := e.g.RunUntilDone(cp, 10*time.Minute); err != nil {
			t.Fatal(err)
		}
		e.g.Run(5 * time.Second)
		status, _ := e.c.Plan(ctx, "warmup")
		site := status.Tasks[0].Site

		profile := gae.TaskProfile{
			Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
			ReqHours: 120.0 / 3600,
		}
		est, err := e.c.EstimateRuntime(ctx, site, profile)
		tr.step("runtime", est, err)
		if err != nil || est.Seconds < 100 || est.Seconds > 140 {
			t.Fatalf("%s: runtime estimate = %+v, %v (want ≈120s)", e.name, est, err)
		}
		_, err = e.c.EstimateRuntime(ctx, "ghost", profile)
		tr.step("runtime-ghost", nil, err)

		transfer, err := e.c.EstimateTransfer(ctx, "siteA", "siteB", 100)
		tr.step("transfer", transfer, err)
		_, err = e.c.EstimateTransfer(ctx, "siteA", "ghost", 100)
		tr.step("transfer-ghost", nil, err)

		// Queue-time for a job behind a long-running one.
		hog := parityPlan("hog", 1000)
		hog.Tasks[0].Priority = 9
		if _, err := e.c.Submit(ctx, hog); err != nil {
			t.Fatal(err)
		}
		e.g.Run(3 * time.Second)
		if _, err := e.c.Submit(ctx, parityPlan("low", 50)); err != nil {
			t.Fatal(err)
		}
		e.g.Run(3 * time.Second)
		low, _ := e.c.Plan(ctx, "low")
		a := low.Tasks[0]
		tr.step("low-assignment", a, nil)
		if a.CondorID != 0 {
			qt, err := e.c.EstimateQueueTime(ctx, a.Site, a.CondorID)
			tr.step("queuetime", qt, err)
		}
	})
}

func TestParityQuota(t *testing.T) {
	runParity(t, func(t *testing.T, e env, tr *trace) {
		ctx := context.Background()
		bal, err := e.c.Balance(ctx)
		tr.step("balance", bal, err)
		cost, err := e.c.Cost(ctx, "siteA", 100, 0)
		tr.step("cost", cost, err)
		_, err = e.c.Cost(ctx, "ghost", 100, 0)
		tr.step("cost-ghost", nil, err)
		ch, err := e.c.Cheapest(ctx, []string{"siteA", "siteB"}, 100, 0)
		tr.step("cheapest", ch, err)
	})
}

func TestParityReplica(t *testing.T) {
	runParity(t, func(t *testing.T, e env, tr *trace) {
		ctx := context.Background()
		if err := e.g.PutDataset("siteA", "raw.data", 120); err != nil {
			t.Fatal(err)
		}
		ds, err := e.c.Datasets(ctx)
		tr.step("datasets", ds, err)
		locs, err := e.c.Replicas(ctx, "raw.data")
		tr.step("locations", locs, err)
		tr.step("register", nil, e.c.RegisterReplica(ctx, "raw.data", "siteB", 120))
		best, err := e.c.BestReplica(ctx, "raw.data", "siteB")
		tr.step("best", best, err)
		_, err = e.c.BestReplica(ctx, "ghost.data", "siteA")
		tr.step("best-ghost", nil, err)
	})
}

func TestParityMonitor(t *testing.T) {
	runParity(t, func(t *testing.T, e env, tr *trace) {
		ctx := context.Background()
		e.g.Run(30 * time.Second)
		load, err := e.c.Latest(ctx, "siteA", "LoadAvg")
		tr.step("latest", load, err)
		_, err = e.c.Latest(ctx, "nowhere", "LoadAvg")
		tr.step("latest-missing", nil, err)
		series, err := e.c.Series(ctx, "siteA", "LoadAvg", 60)
		tr.step("series", series, err)
		metrics, err := e.c.Metrics(ctx)
		tr.step("metrics", metrics, err)
		weather, err := e.c.Weather(ctx)
		tr.step("weather", weather, err)

		if _, err := e.c.Submit(ctx, parityPlan("evplan", 10)); err != nil {
			t.Fatal(err)
		}
		e.g.Run(20 * time.Second)
		events, err := e.c.Events(ctx, "", 120)
		tr.step("events", events, err)
	})
}

func TestParityState(t *testing.T) {
	runParity(t, func(t *testing.T, e env, tr *trace) {
		ctx := context.Background()
		tr.step("set", nil, e.c.SetState(ctx, "cuts", "pt>20"))
		v, err := e.c.GetState(ctx, "cuts")
		tr.step("get", v, err)
		keys, err := e.c.StateKeys(ctx)
		tr.step("keys", keys, err)
		_, err = e.c.GetState(ctx, "missing")
		tr.step("get-missing", nil, err)

		// Keys are private to the user.
		other := e.other(t, "root", "rootpw")
		otherKeys, err := other.StateKeys(ctx)
		tr.step("other-keys", otherKeys, err)
		_, err = other.GetState(ctx, "cuts")
		tr.step("other-get", nil, err)

		ok, err := e.c.DeleteState(ctx, "cuts")
		tr.step("delete", ok, err)
		ok, err = e.c.DeleteState(ctx, "cuts")
		tr.step("double-delete", ok, err)
	})
}
