package core

import (
	"context"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clarens"
	"repro/internal/replica"
	"repro/internal/scheduler"
	"repro/internal/simgrid"
	"repro/internal/vtime"
	"repro/internal/workload"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

// callAs invokes method and decodes its reply into a T under CallInto's
// rules.
func callAs[T any](ctx context.Context, c *clarens.Client, method string, args ...any) (v T, err error) {
	err = c.CallInto(ctx, method, &v, args...)
	return v, err
}

// twoSiteConfig is the canonical test deployment: two single-node sites
// with a 10 MB/s link, alice and an admin user.
func twoSiteConfig() Config {
	return Config{
		Sites: []SiteSpec{
			{Name: "siteA", Nodes: 1, CostPerCPUSecond: 0.10},
			{Name: "siteB", Nodes: 1, CostPerCPUSecond: 0.02},
		},
		Links: []LinkSpec{{A: "siteA", B: "siteB", MBps: 10}},
		Users: []UserSpec{
			{Name: "alice", Password: "pw", Credits: 1000},
			{Name: "root", Password: "rootpw", Admin: true},
		},
	}
}

func primePlan(owner, name string, cpu float64) *scheduler.JobPlan {
	return &scheduler.JobPlan{
		Name:  name,
		Owner: owner,
		Tasks: []scheduler.TaskPlan{{
			ID: "main", CPUSeconds: cpu,
			Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
			ReqHours: cpu / 3600, OutputFile: "out.dat", OutputMB: 1,
		}},
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("siteless config accepted")
		}
	}()
	New(Config{})
}

func TestEndToEndPlanExecution(t *testing.T) {
	g := New(twoSiteConfig())
	cp, err := g.Scheduler.Submit(primePlan("alice", "p1", 60))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunUntilDone(cp, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if done, ok := cp.Done(); !done || !ok {
		t.Fatalf("plan done=%v ok=%v", done, ok)
	}
	// Output file landed in the execution site's storage.
	a, _ := cp.Assignment("main")
	site := g.Grid.Site(a.Site)
	if _, ok := site.Storage().Get("out.dat"); !ok {
		t.Fatal("output file missing")
	}
	// Steering recorded the completion.
	g.Run(15 * time.Second)
	var completed bool
	for _, n := range g.Steering.Notifications("alice") {
		if n.Kind == "completed" {
			completed = true
		}
	}
	if !completed {
		t.Fatal("no completion notification")
	}
}

// startGAE serves the Clarens host over httptest and logs a client in.
func startGAE(t *testing.T, cfg Config) (*GAE, *clarens.Client) {
	t.Helper()
	g := New(cfg)
	hs := httptest.NewServer(g.Handler())
	t.Cleanup(hs.Close)
	g.Clarens.SetBaseURL(hs.URL)
	c := clarens.NewClient(hs.URL)
	if err := c.Login(context.Background(), "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	return g, c
}

func TestClarensHostsAllFourServices(t *testing.T) {
	g, c := startGAE(t, twoSiteConfig())
	var svcs []clarens.ServiceInfo
	if err := c.CallInto(context.Background(), "registry.list", &svcs); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range svcs {
		names[s.Name] = true
	}
	for _, want := range []string{"jobmon", "steering", "estimator", "quota"} {
		if !names[want] {
			t.Errorf("service %q not registered (have %v)", want, names)
		}
	}
	_ = g
}

func TestServicesRequireAuthentication(t *testing.T) {
	g := New(twoSiteConfig())
	hs := httptest.NewServer(g.Handler())
	defer hs.Close()
	anon := clarens.NewClient(hs.URL)
	for _, method := range []string{"jobmon.pools", "steering.jobs", "quota.balance"} {
		if _, err := anon.Call(context.Background(), method); !xmlrpc.IsFault(err, xmlrpc.FaultAuth) {
			t.Errorf("%s without session: %v", method, err)
		}
	}
}

func TestJobMonOverRPC(t *testing.T) {
	g, c := startGAE(t, twoSiteConfig())
	cp, err := g.Scheduler.Submit(primePlan("alice", "p1", 200))
	if err != nil {
		t.Fatal(err)
	}
	g.Run(20 * time.Second)
	a, _ := cp.Assignment("main")
	ctx := context.Background()
	status, err := callAs[string](ctx, c, "jobmon.status", a.Site, a.CondorID)
	if err != nil {
		t.Fatal(err)
	}
	if status != "running" {
		t.Fatalf("status = %q", status)
	}
	wall, err := callAs[float64](ctx, c, "jobmon.wallclock", a.Site, a.CondorID)
	if err != nil {
		t.Fatal(err)
	}
	if wall < 15 || wall > 21 {
		t.Fatalf("wallclock = %v", wall)
	}
}

func TestSteeringOverRPC(t *testing.T) {
	g, c := startGAE(t, twoSiteConfig())
	g.Steering.AutoSteer = false
	if _, err := g.Scheduler.Submit(primePlan("alice", "p1", 300)); err != nil {
		t.Fatal(err)
	}
	g.Run(5 * time.Second)
	ctx := context.Background()

	jobs, err := callAs[[]any](ctx, c, "steering.jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0] != "p1/main" {
		t.Fatalf("steering.jobs = %v", jobs)
	}
	st, err := callAs[map[string]any](ctx, c, "steering.status", "p1", "main")
	if err != nil {
		t.Fatal(err)
	}
	if st["owner"] != "alice" || st["state"] != "submitted" {
		t.Fatalf("status = %v", st)
	}
	// Pause over RPC, confirm frozen, resume.
	if _, err := c.Call(ctx, "steering.pause", "p1", "main"); err != nil {
		t.Fatal(err)
	}
	g.Run(10 * time.Second)
	st, _ = callAs[map[string]any](ctx, c, "steering.status", "p1", "main")
	job := st["job"].(map[string]any)
	if job["status"] != "suspended" {
		t.Fatalf("paused job = %v", job["status"])
	}
	if _, err := c.Call(ctx, "steering.resume", "p1", "main"); err != nil {
		t.Fatal(err)
	}
	// Move to the other site explicitly.
	before := st["site"].(string)
	target := "siteB"
	if before == "siteB" {
		target = "siteA"
	}
	moved, err := callAs[map[string]any](ctx, c, "steering.move", "p1", "main", target)
	if err != nil {
		t.Fatal(err)
	}
	if moved["site"] != target {
		t.Fatalf("moved = %v", moved)
	}
	// Notifications mention the move.
	ns, err := callAs[[]any](ctx, c, "steering.notifications")
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) == 0 {
		t.Fatal("no notifications over RPC")
	}
	first := ns[0].(map[string]any)
	if !strings.Contains(first["message"].(string), "moved") {
		t.Fatalf("notification = %v", first)
	}
}

func TestSteeringRPCAuthorization(t *testing.T) {
	g, _ := startGAE(t, twoSiteConfig())
	g.Steering.AutoSteer = false
	if _, err := g.Scheduler.Submit(primePlan("alice", "p1", 300)); err != nil {
		t.Fatal(err)
	}
	g.Run(5 * time.Second)
	// root (admin) may steer alice's job; a fresh non-admin user may not.
	ctx := context.Background()
	rootC := clarens.NewClient(g.Clarens.BaseURL())
	if err := rootC.Login(ctx, "root", "rootpw"); err != nil {
		t.Fatal(err)
	}
	if _, err := rootC.Call(ctx, "steering.pause", "p1", "main"); err != nil {
		t.Fatalf("admin pause: %v", err)
	}
	if _, err := rootC.Call(ctx, "steering.resume", "p1", "main"); err != nil {
		t.Fatalf("admin resume: %v", err)
	}
	g.Clarens.Users.Add("mallory", "mpw")
	malC := clarens.NewClient(g.Clarens.BaseURL())
	if err := malC.Login(ctx, "mallory", "mpw"); err != nil {
		t.Fatal(err)
	}
	if _, err := malC.Call(ctx, "steering.kill", "p1", "main"); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
		t.Fatalf("mallory kill error = %v", err)
	}
}

func TestEstimatorOverRPC(t *testing.T) {
	g, c := startGAE(t, twoSiteConfig())
	ctx := context.Background()
	// Train siteA's history by completing a plan there.
	cp, err := g.Scheduler.Submit(primePlan("alice", "warmup", 120))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunUntilDone(cp, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	g.Run(5 * time.Second)
	a, _ := cp.Assignment("main")
	est, err := callAs[map[string]any](ctx, c, "estimator.runtime", a.Site, map[string]any{
		"queue": "short", "partition": "gae", "nodes": 1, "job_type": "batch",
		"req_cpu_hours": 120.0 / 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	sec := est["seconds"].(float64)
	if sec < 100 || sec > 140 {
		t.Fatalf("runtime estimate = %v, want ≈120", sec)
	}
	// Transfer estimate.
	tr, err := callAs[map[string]any](ctx, c, "estimator.transfer", "siteA", "siteB", 100.0)
	if err != nil {
		t.Fatal(err)
	}
	if s := tr["seconds"].(float64); s < 9 || s > 11 {
		t.Fatalf("transfer estimate = %v, want ≈10", s)
	}
	// Queue-time estimate for a queued job.
	pool, _ := g.Pool("siteA")
	hog := primePlan("alice", "hog", 1000)
	hog.Tasks[0].Priority = 9
	if _, err := g.Scheduler.Submit(hog); err != nil {
		t.Fatal(err)
	}
	g.Run(3 * time.Second)
	low := primePlan("alice", "low", 50)
	cpLow, err := g.Scheduler.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(3 * time.Second)
	aLow, _ := cpLow.Assignment("main")
	if aLow.Site == "siteA" && aLow.CondorID != 0 {
		qt, err := callAs[map[string]any](ctx, c, "estimator.queuetime", "siteA", aLow.CondorID)
		if err != nil {
			t.Fatal(err)
		}
		if qt["seconds"].(float64) < 0 {
			t.Fatalf("queuetime = %v", qt)
		}
	}
	_ = pool
}

func TestQuotaOverRPC(t *testing.T) {
	_, c := startGAE(t, twoSiteConfig())
	ctx := context.Background()
	bal, err := callAs[float64](ctx, c, "quota.balance")
	if err != nil {
		t.Fatal(err)
	}
	if bal != 1000 {
		t.Fatalf("balance = %v", bal)
	}
	cost, err := callAs[float64](ctx, c, "quota.cost", "siteA", 100.0, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 10 {
		t.Fatalf("cost = %v", cost)
	}
	ch, err := callAs[map[string]any](ctx, c, "quota.cheapest", []string{"siteA", "siteB"}, 100.0, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if ch["site"] != "siteB" {
		t.Fatalf("cheapest = %v", ch)
	}
}

func TestFigure7ScenarioInProcess(t *testing.T) {
	// The full steering rescue: job lands at siteA, siteA becomes loaded
	// (significant CPU load two seconds in), the optimizer moves it, and
	// completion beats the unsteered copy.
	cfg := twoSiteConfig()
	cfg.Sites[0].Load = simgrid.StepLoad(vtime.Epoch, []time.Duration{2 * time.Second}, []float64{0, 0.7})
	g := New(cfg)
	g.Steering.PollInterval = 10 * time.Second

	// Make siteB look busy at decision time so the job starts at siteA.
	g.MonALISA.Publish("siteB", "LoadAvg", g.Now(), 0.95)
	cp, err := g.Scheduler.Submit(primePlan("alice", "primes", workload.PrimeJobCPUSeconds))
	if err != nil {
		t.Fatal(err)
	}
	g.Run(2 * time.Second)
	a, _ := cp.Assignment("main")
	if a.Site != "siteA" {
		t.Fatalf("job started at %s, want siteA", a.Site)
	}
	if err := g.RunUntilDone(cp, 15*time.Minute); err != nil {
		t.Fatal(err)
	}
	done := g.Now().Sub(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC))
	// Steered: ≈ detection (40-60s) + 283s ≪ unsteered 943s.
	if done > 450*time.Second {
		t.Fatalf("steered completion = %v, want < 450s", done)
	}
	final, _ := cp.Assignment("main")
	if final.Site != "siteB" {
		t.Fatalf("final site = %s", final.Site)
	}
}

func TestSchedulerSubmitOverRPC(t *testing.T) {
	g, c := startGAE(t, twoSiteConfig())
	ctx := context.Background()
	plan := map[string]any{
		"name": "rpcplan",
		"tasks": []any{
			map[string]any{"id": "a", "cpu_seconds": 20.0, "queue": "short"},
			map[string]any{"id": "b", "cpu_seconds": 20.0, "queue": "short",
				"depends_on": []any{"a"}, "output_file": "b.out", "output_mb": 3.0},
		},
	}
	name, err := callAs[string](ctx, c, "scheduler.submit", plan)
	if err != nil {
		t.Fatal(err)
	}
	if name != "rpcplan" {
		t.Fatalf("submit returned %q", name)
	}
	// Duplicate plan names are rejected.
	if _, err := c.Call(ctx, "scheduler.submit", plan); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
		t.Fatalf("duplicate submit error = %v", err)
	}
	g.Run(90 * time.Second)
	status, err := callAs[map[string]any](ctx, c, "scheduler.plan", "rpcplan")
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := status["done"].(bool); !done {
		t.Fatalf("plan status = %v", status)
	}
	if ok, _ := status["succeeded"].(bool); !ok {
		t.Fatalf("plan failed: %v", status)
	}
	tasks, _ := status["tasks"].([]any)
	if len(tasks) != 2 {
		t.Fatalf("tasks = %v", tasks)
	}
	// Invalid plans are rejected with an application fault.
	if _, err := c.Call(ctx, "scheduler.submit", map[string]any{"name": "bad"}); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
		t.Fatalf("invalid plan error = %v", err)
	}
	if _, err := c.Call(ctx, "scheduler.plan", "ghost"); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
		t.Fatalf("ghost plan error = %v", err)
	}
	sites, err := callAs[[]any](ctx, c, "scheduler.sites")
	if err != nil || len(sites) != 2 {
		t.Fatalf("sites = %v, %v", sites, err)
	}
}

func TestPlanSpecRoundTrip(t *testing.T) {
	plan := primePlan("alice", "round", 50)
	plan.Tasks[0].DependsOn = nil
	spec := PlanSpecOf(plan)
	got, err := planFromSpec(spec, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != plan.Name || got.Owner != "alice" || len(got.Tasks) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Tasks[0].CPUSeconds != 50 || got.Tasks[0].OutputFile != "out.dat" {
		t.Fatalf("task round trip = %+v", got.Tasks[0])
	}
	// The spec survives the typed wire codec too — what scheduler.submit
	// actually receives.
	w, err := xmlrpc.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back gae.PlanSpec
	if err := xmlrpc.Unmarshal(w, &back); err != nil {
		t.Fatal(err)
	}
	// A nil dependency list rides the wire as an empty array.
	if len(back.Tasks) == 1 && len(back.Tasks[0].DependsOn) == 0 {
		back.Tasks[0].DependsOn = nil
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("wire round trip:\n in=%+v\nout=%+v", spec, back)
	}
}

func TestPutDatasetAndReplicaRPC(t *testing.T) {
	g, c := startGAE(t, twoSiteConfig())
	if err := g.PutDataset("siteA", "raw.data", 120); err != nil {
		t.Fatal(err)
	}
	if err := g.PutDataset("ghost", "raw.data", 1); err == nil {
		t.Fatal("PutDataset at unknown site succeeded")
	}
	ctx := context.Background()
	ds, err := callAs[[]any](ctx, c, "replica.datasets")
	if err != nil || len(ds) != 1 || ds[0] != "raw.data" {
		t.Fatalf("datasets = %v, %v", ds, err)
	}
	locs, err := callAs[[]any](ctx, c, "replica.locations", "raw.data")
	if err != nil || len(locs) != 1 {
		t.Fatalf("locations = %v, %v", locs, err)
	}
	if m := locs[0].(map[string]any); m["site"] != "siteA" {
		t.Fatalf("location = %v", m)
	}
	if _, err := c.Call(ctx, "replica.register", "raw.data", "siteB", 120.0); err != nil {
		t.Fatal(err)
	}
	best, err := callAs[map[string]any](ctx, c, "replica.best", "raw.data", "siteB")
	if err != nil {
		t.Fatal(err)
	}
	if best["site"] != "siteB" || best["transfer_s"].(float64) != 0 {
		t.Fatalf("best = %v", best)
	}
	if _, err := c.Call(ctx, "replica.best", "ghost.data", "siteA"); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
		t.Fatalf("ghost best error = %v", err)
	}
}

func TestMonitorRPC(t *testing.T) {
	g, c := startGAE(t, twoSiteConfig())
	g.Run(30 * time.Second)
	ctx := context.Background()
	load, err := callAs[float64](ctx, c, "monitor.latest", "siteA", "LoadAvg")
	if err != nil {
		t.Fatal(err)
	}
	if load < 0 || load > 1 {
		t.Fatalf("load = %v", load)
	}
	if _, err := c.Call(ctx, "monitor.latest", "nowhere", "LoadAvg"); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
		t.Fatalf("missing metric error = %v", err)
	}
	series, err := callAs[[]any](ctx, c, "monitor.series", "siteA", "LoadAvg", 60.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 3 {
		t.Fatalf("series = %d points", len(series))
	}
	metrics, err := callAs[[]any](ctx, c, "monitor.metrics")
	if err != nil || len(metrics) == 0 {
		t.Fatalf("metrics = %v, %v", metrics, err)
	}
	sitesRows, err := callAs[[]any](ctx, c, "monitor.sites")
	if err != nil || len(sitesRows) != 2 {
		t.Fatalf("sites = %v, %v", sitesRows, err)
	}
	// Job events appear after a plan runs.
	if _, err := g.Scheduler.Submit(primePlan("alice", "evplan", 10)); err != nil {
		t.Fatal(err)
	}
	g.Run(20 * time.Second)
	events, err := callAs[[]any](ctx, c, "monitor.events", "", 120.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no job events recorded")
	}
}

func TestReplicaDrivenPlanOverCore(t *testing.T) {
	cfg := twoSiteConfig()
	g := New(cfg)
	if err := g.PutDataset("siteA", "big.raw", 300); err != nil {
		t.Fatal(err)
	}
	plan := primePlan("alice", "dataplan", 40)
	plan.Tasks[0].Inputs = []scheduler.FileRef{{Name: "big.raw"}} // catalog-resolved
	cp, err := g.Scheduler.Submit(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunUntilDone(cp, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if done, ok := cp.Done(); !done || !ok {
		t.Fatalf("plan = %v/%v", done, ok)
	}
	a, _ := cp.Assignment("main")
	// Wherever it ran, the dataset must now be present there.
	if !slices.ContainsFunc(g.Replicas.Locations("big.raw"), func(l replica.Location) bool { return l.Site == a.Site }) {
		t.Fatalf("no replica at execution site %s", a.Site)
	}
}

func TestStateRPCPerUserIsolation(t *testing.T) {
	g, alice := startGAE(t, twoSiteConfig())
	ctx := context.Background()
	if _, err := alice.Call(ctx, "state.set", "cuts", "pt>20"); err != nil {
		t.Fatal(err)
	}
	v, err := callAs[string](ctx, alice, "state.get", "cuts")
	if err != nil || v != "pt>20" {
		t.Fatalf("get = %q, %v", v, err)
	}
	keys, err := callAs[[]any](ctx, alice, "state.keys")
	if err != nil || len(keys) != 1 || keys[0] != "cuts" {
		t.Fatalf("keys = %v, %v", keys, err)
	}
	// root does not see alice's keys.
	rootC := clarens.NewClient(g.Clarens.BaseURL())
	if err := rootC.Login(ctx, "root", "rootpw"); err != nil {
		t.Fatal(err)
	}
	rootKeys, err := callAs[[]any](ctx, rootC, "state.keys")
	if err != nil || len(rootKeys) != 0 {
		t.Fatalf("root keys = %v, %v", rootKeys, err)
	}
	if _, err := rootC.Call(ctx, "state.get", "cuts"); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
		t.Fatalf("cross-user get error = %v", err)
	}
	// Delete round trip.
	ok, err := callAs[bool](ctx, alice, "state.delete", "cuts")
	if err != nil || !ok {
		t.Fatalf("delete = %v, %v", ok, err)
	}
	ok, err = callAs[bool](ctx, alice, "state.delete", "cuts")
	if err != nil || ok {
		t.Fatalf("double delete = %v, %v", ok, err)
	}
}

func TestFederationDiscoveryAndSiteServices(t *testing.T) {
	fed := NewFederation(twoSiteConfig())
	central, err := fed.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Stop()
	g := fed.Central
	ctx := context.Background()

	// One login at the central host works grid-wide (shared sessions).
	c := clarens.NewClient(central)
	if err := c.Login(ctx, "alice", "pw"); err != nil {
		t.Fatal(err)
	}

	// The central host does not host estimator-siteA itself; discovery
	// must find it on the peer.
	info, err := c.Discover(ctx, "estimator-siteA")
	if err != nil {
		t.Fatal(err)
	}
	wantURL, _ := fed.URL("siteA")
	if info.Endpoint != wantURL {
		t.Fatalf("discovered endpoint = %q, want %q", info.Endpoint, wantURL)
	}

	// Train siteA's history, then call its site-local estimator directly
	// at the discovered endpoint using the same session token.
	cp, err := g.Scheduler.Submit(primePlan("alice", "train", 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunUntilDone(cp, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	g.Run(5 * time.Second)
	a, _ := cp.Assignment("main")

	siteClient := clarens.NewClient(info.Endpoint)
	siteClient.SetToken(c.Token())
	est, err := callAs[map[string]any](ctx, siteClient, "estimator-"+a.Site+".runtime", map[string]any{
		"queue": "short", "partition": "gae", "nodes": 1, "job_type": "batch",
		"req_cpu_hours": 100.0 / 3600,
	})
	if err != nil {
		// The trained site may be siteB; discover that host instead.
		info2, derr := c.Discover(ctx, "estimator-"+a.Site)
		if derr != nil {
			t.Fatal(err)
		}
		siteClient = clarens.NewClient(info2.Endpoint)
		siteClient.SetToken(c.Token())
		est, err = callAs[map[string]any](ctx, siteClient, "estimator-"+a.Site+".runtime", map[string]any{
			"queue": "short", "partition": "gae", "nodes": 1, "job_type": "batch",
			"req_cpu_hours": 100.0 / 3600,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sec := est["seconds"].(float64)
	if sec < 80 || sec > 120 {
		t.Fatalf("federated estimate = %v, want ≈100", sec)
	}

	// Site-local jobmon answers for that site's jobs.
	jmInfo, derr := c.Discover(ctx, "jobmon-"+a.Site)
	if derr != nil {
		t.Fatal(derr)
	}
	jmClient := clarens.NewClient(jmInfo.Endpoint)
	jmClient.SetToken(c.Token())
	status, err := callAs[string](ctx, jmClient, "jobmon-"+a.Site+".status", a.CondorID)
	if err != nil {
		t.Fatal(err)
	}
	if status != "completed" {
		t.Fatalf("federated status = %q", status)
	}

	// A client attached to a SITE host can discover the central steering
	// service through the reverse peer link.
	siteURL, _ := fed.URL("siteB")
	sb := clarens.NewClient(siteURL)
	sb.SetToken(c.Token())
	steeringInfo, err := sb.Discover(ctx, "steering")
	if err != nil {
		t.Fatal(err)
	}
	if steeringInfo.Endpoint != central {
		t.Fatalf("steering discovered at %q, want central %q", steeringInfo.Endpoint, central)
	}
}
