package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/durable"
	"repro/internal/fairshare"
	"repro/internal/scheduler"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

// The tests in this file pin the one-owner rule: every call into a
// deployment — a local client's, a wire handler's — takes the
// deployment's one lock, and Run holds it for one boundary at a time.
// The services under it hold no lock of their own, so these run under
// -race in make race-smoke.

// rowCall is one call of a method row, named by the row's Op.
type rowCall struct {
	op   string
	call func() error
}

// everyRow is a call of each method row on c, acting on plan p (task
// "main"), which round i of a caller submits. The two administrator rows
// go through admin.
func everyRow(ctx context.Context, c, admin *gae.Client, p string, i int) []rowCall {
	err := func(_ any, err error) error { return err }
	return []rowCall{
		{"scheduler.submit", func() error { return err(c.Submit(ctx, specOf(p, 600))) }},
		{"scheduler.plan", func() error { return err(c.Plan(ctx, p)) }},
		{"scheduler.sites", func() error { return err(c.Sites(ctx)) }},
		{"steering.jobs", func() error { return err(c.Jobs(ctx)) }},
		{"steering.status", func() error { return err(c.TaskStatus(ctx, p, "main")) }},
		{"steering.pause", func() error { return c.Pause(ctx, p, "main") }},
		{"steering.resume", func() error { return c.Resume(ctx, p, "main") }},
		{"steering.setpriority", func() error { return c.SetPriority(ctx, p, "main", i%5) }},
		{"steering.estimate", func() error { return err(c.EstimateCompletion(ctx, p, "main")) }},
		{"steering.move", func() error { return err(c.Move(ctx, p, "main", "")) }},
		{"steering.notifications", func() error { return err(c.Notifications(ctx)) }},
		{"steering.preference", func() error { return err(c.Preference(ctx)) }},
		{"steering.setpreference", func() error { return err(c.SetPreference(ctx, [2]string{"fast", "cheap"}[i%2])) }},
		{"jobmon.info", func() error { return err(c.Job(ctx, "siteA", 1)) }},
		{"jobmon.status", func() error { return err(c.JobStatus(ctx, "siteA", 1)) }},
		{"jobmon.progress", func() error { return err(c.JobProgress(ctx, "siteB", 1)) }},
		{"jobmon.wallclock", func() error { return err(c.JobWallclock(ctx, "siteA", 1)) }},
		{"jobmon.elapsed", func() error { return err(c.JobElapsed(ctx, "siteB", 1)) }},
		{"jobmon.remaining", func() error { return err(c.JobRemaining(ctx, "siteA", 1)) }},
		{"jobmon.queueposition", func() error { return err(c.JobQueuePosition(ctx, "siteA", 2)) }},
		{"jobmon.list", func() error { return err(c.JobList(ctx, "siteA")) }},
		{"jobmon.pools", func() error { return err(c.Pools(ctx)) }},
		{"estimator.runtime", func() error {
			return err(c.EstimateRuntime(ctx, "siteA", gae.TaskProfile{Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch"}))
		}},
		{"estimator.queuetime", func() error { return err(c.EstimateQueueTime(ctx, "siteB", 1)) }},
		{"estimator.transfer", func() error { return err(c.EstimateTransfer(ctx, "siteA", "siteB", 40)) }},
		{"quota.balance", func() error { return err(c.Balance(ctx)) }},
		{"quota.cost", func() error { return err(c.Cost(ctx, "siteA", 60, 10)) }},
		{"quota.cheapest", func() error { return err(c.Cheapest(ctx, []string{"siteA", "siteB"}, 60, 10)) }},
		{"quota.grant", func() error { return admin.Grant(ctx, "alice", 5) }},
		{"quota.charge", func() error {
			return err(admin.ChargeUsage(ctx, gae.ChargeRequest{User: "alice", Site: "siteB", CPUSeconds: 3}))
		}},
		{"replica.datasets", func() error { return err(c.Datasets(ctx)) }},
		{"replica.locations", func() error { return err(c.Replicas(ctx, "hits.root")) }},
		{"replica.register", func() error { return c.RegisterReplica(ctx, "hits.root", "siteB", 40) }},
		{"replica.best", func() error { return err(c.BestReplica(ctx, "hits.root", "siteB")) }},
		{"monitor.latest", func() error { return err(c.Latest(ctx, "siteA", "LoadAvg")) }},
		{"monitor.series", func() error { return err(c.Series(ctx, "siteA", "LoadAvg", 60)) }},
		{"monitor.metrics", func() error { return err(c.Metrics(ctx)) }},
		{"monitor.events", func() error { return err(c.Events(ctx, "", 60)) }},
		{"monitor.sites", func() error { return err(c.Weather(ctx)) }},
		{"state.set", func() error { return c.SetState(ctx, p, fmt.Sprint(i)) }},
		{"state.get", func() error { return err(c.GetState(ctx, p)) }},
		{"state.keys", func() error { return err(c.StateKeys(ctx)) }},
		{"state.delete", func() error { return err(c.DeleteState(ctx, p)) }},
		{"steering.kill", func() error { return c.Kill(ctx, p, "main") }},
	}
}

// dialAs dials the deployment's Clarens host at url as user.
func dialAs(t *testing.T, url, user, pass string) *gae.Client {
	t.Helper()
	c, err := gae.Dial(context.Background(), url, gae.WithCredentials(user, pass))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(context.Background()) })
	return c
}

// TestCallsBesideRun calls every method row, reads and writes, from
// goroutines on both transports — local clients and the wire handler —
// while another goroutine runs the engine. Under -race, a call that
// reached a service outside the deployment's lock, or a boundary that ran
// outside it, is a data race. The journal must then hold the mutations in
// the order they applied: a deployment recovered from the journal alone
// reaches the live state byte for byte.
func TestCallsBesideRun(t *testing.T) {
	ops := map[string]bool{}
	for _, m := range gae.Methods() {
		ops[m.Op] = true
	}
	for _, rc := range everyRow(context.Background(), nil, nil, "", 0) {
		if !ops[rc.op] {
			t.Fatalf("everyRow calls %s, which no row is journaled or measured as", rc.op)
		}
		delete(ops, rc.op)
	}
	if len(ops) != 0 {
		t.Fatalf("everyRow calls no %v", ops)
	}
	callsBesideRun(t, 3)
}

// TestCheckpointBesideCalls checkpoints and captures the deployment from
// goroutines of their own while every method row is called on both
// transports and the engine runs. Under -race, a capture that read the
// state outside the deployment's lock, or a call's metric handles made
// outside it, is a data race. Recovery from the last checkpoint plus the
// journal tail after it must reach the live state byte for byte.
func TestCheckpointBesideCalls(t *testing.T) {
	var checkpoints atomic.Int64
	callsBesideRun(t, 3,
		func(g *GAE) error { checkpoints.Add(1); return g.Checkpoint() },
		func(g *GAE) error { _, err := g.CaptureState(); return err },
	)
	if checkpoints.Load() == 0 {
		t.Fatal("no checkpoint ran beside the calls")
	}
}

// callsBesideRun attaches a durable store in a fresh directory to a
// deployment and calls every method row rounds times from two local and
// two wire callers, while one goroutine runs the engine and one per function
// in loops calls it over and over, until the callers are done. A
// deployment recovered from the directory must then encode the live state
// byte for byte. Fair share runs without decay: a read settles the
// accounts it prices, and decayed usage has float bits that depend on
// where a settle falls; undecayed whole-second accrual at whole rates is
// exact wherever it is split.
func callsBesideRun(t *testing.T, rounds int, loops ...func(g *GAE) error) {
	t.Helper()
	dir := t.TempDir()
	cfg := twoSiteConfig()
	cfg.Sites[0].Nodes, cfg.Sites[1].Nodes = 3, 3
	cfg.FairShare = &fairshare.Config{HalfLife: -1}
	ctx := context.Background()

	g1 := New(cfg)
	s1, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.AttachStore(s1); err != nil {
		t.Fatal(err)
	}
	if err := g1.Client("root").RegisterReplica(ctx, "hits.root", "siteA", 40); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(g1.Handler())
	defer hs.Close()
	type caller struct {
		name     string
		c, admin *gae.Client
	}
	var callers []caller
	for k := range 2 {
		callers = append(callers,
			caller{fmt.Sprint("local", k), g1.Client("alice"), g1.Client("root")},
			caller{fmt.Sprint("wire", k), dialAs(t, hs.URL, "alice", "pw"), dialAs(t, hs.URL, "root", "rootpw")})
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	loops = append(loops, func(g *GAE) error { g.Run(7 * time.Second); return nil })
	for _, loop := range loops {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if err := loop(g1); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, rc := range everyRow(ctx, c.c, c.admin, fmt.Sprintf("%s-%d", c.name, i%3), i) {
					_ = rc.call() // a call that lost a race with another is an answer too
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if t.Failed() {
		return
	}
	// A last journaled call, so that recovery replays time up to where the
	// live clock stands.
	if err := g1.Client("alice").SetState(ctx, "done", "yes"); err != nil {
		t.Fatal(err)
	}
	want := encodeState(t, g1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := New(cfg)
	s2, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := g2.AttachStore(s2); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := encodeState(t, g2); !bytes.Equal(want, got) {
		diffLines(t, want, got)
	}
}

// TestReadDuringRunReturnsFirst: Run gives the deployment's lock up at
// every boundary, so a read issued while a long Run is in progress
// returns before that Run does. The lock is not FIFO — a waiter may see
// Run take it back for up to Go's starvation handoff, a millisecond — so
// this asks for nothing finer than that.
func TestReadDuringRunReturnsFirst(t *testing.T) {
	cfg := twoSiteConfig()
	cfg.MonitorInterval = time.Second // a boundary every simulated second
	g := New(cfg)
	start := g.Now()
	var runDone atomic.Bool
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		g.Run(6 * time.Hour) // 21 600 boundaries
		runDone.Store(true)
	}()
	for g.Now().Sub(start) < time.Minute {
		if runDone.Load() {
			t.Fatal("Run finished before a read could be issued")
		}
	}
	if _, err := g.Client("alice").Weather(context.Background()); err != nil {
		t.Fatal(err)
	}
	if runDone.Load() {
		t.Fatal("a read issued during Run returned after it")
	}
	<-finished
	if got := g.Now().Sub(start); got != 6*time.Hour {
		t.Fatalf("Run advanced %v, want 6h", got)
	}
}

// TestConcurrentSubmitsLaunchEachTaskOnce: submissions through the local
// and the wire transport, beside a running engine, all pump the
// scheduler's pending plans. Each task must still launch exactly once, on
// the site its assignment names.
func TestConcurrentSubmitsLaunchEachTaskOnce(t *testing.T) {
	const n = 8
	cfg := twoSiteConfig()
	cfg.Sites[0].Nodes, cfg.Sites[1].Nodes = 4, 4
	g := New(cfg)
	g.Steering.AutoSteer = false
	hs := httptest.NewServer(g.Handler())
	defer hs.Close()
	clients := []*gae.Client{g.Client("alice"), dialAs(t, hs.URL, "alice", "pw")}
	ctx := context.Background()
	stop, ran := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ran)
		for {
			select {
			case <-stop:
				return
			default:
				g.Run(time.Second)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := clients[i%2].Submit(ctx, specOf(fmt.Sprintf("p%d", i), 1e5)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-ran
	if t.Failed() {
		return
	}
	held := 0
	for _, site := range g.Sites() {
		pool, _ := g.Pool(site)
		jobs, err := pool.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		held += len(jobs)
	}
	if held != n {
		t.Fatalf("the pools hold %d jobs for %d one-task plans", held, n)
	}
	named := map[string]bool{}
	for i := 0; i < n; i++ {
		cp, _ := g.Scheduler.Plan(fmt.Sprintf("p%d", i))
		a, _ := cp.Assignment("main")
		if a.State != scheduler.TaskSubmitted || a.Attempts != 1 {
			t.Fatalf("plan %d: assignment %+v, want submitted once", i, a)
		}
		k := fmt.Sprint(a.Site, "/", a.CondorID)
		if named[k] {
			t.Fatalf("plan %d names job %s, already another plan's", i, k)
		}
		named[k] = true
	}
}

// TestCheckpointedMoveBesideRun moves checkpointable tasks between sites
// while the engine runs on another goroutine, as gae-server's does. A
// move resubmits the job with the CPU-seconds it checkpointed; a job the
// engine could start between being queued and getting its checkpoint
// would run its whole work on top of it. Every task ends completed with
// exactly its own CPU-seconds.
func TestCheckpointedMoveBesideRun(t *testing.T) {
	const plans, need = 6, 300.0
	cfg := twoSiteConfig()
	cfg.Sites[0].Nodes, cfg.Sites[1].Nodes = 3, 3
	g := New(cfg)
	g.Steering.AutoSteer = false
	alice := g.Client("alice")
	ctx := context.Background()
	names := make([]string, plans)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
		spec := specOf(names[i], need)
		spec.Tasks[0].Checkpointable = true
		if _, err := alice.Submit(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	stop, ran := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ran)
		for {
			select {
			case <-stop:
				return
			default:
				g.Run(time.Second)
			}
		}
	}()
	for round := 0; round < 20; round++ {
		for at := g.Now(); g.Now().Sub(at) < 5*time.Second; {
			runtime.Gosched() // let each move find some work checkpointed
		}
		for _, name := range names {
			if _, err := alice.Move(ctx, name, "main", ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	<-ran
	for _, name := range names {
		cp, _ := g.Scheduler.Plan(name)
		if err := g.RunUntilDone(cp, time.Hour); err != nil {
			t.Fatal(err)
		}
		a, _ := cp.Assignment("main")
		pool, _ := g.Pool(a.Site)
		info, err := pool.Job(a.CondorID)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != condor.StatusCompleted || info.CPUSeconds != need {
			t.Errorf("%s: %v with %v CPU-seconds after %d moves, want completed with %v", name, info.Status, info.CPUSeconds, a.Attempts-1, need)
		}
	}
}

// TestBadAmountsAreRefused: a grant, a charge or a quote of a negative or
// non-finite amount is refused, through the local client and through the
// wire handler, before anything applies: the balance is unchanged and
// nothing is journaled. (On the wire a NaN or an infinity is already a
// parse fault.)
func TestBadAmountsAreRefused(t *testing.T) {
	g := New(twoSiteConfig())
	dir := t.TempDir()
	s, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	root := g.Client("root")
	before, _ := g.Quota.Balance("alice")
	for _, v := range []float64{-1, math.NaN(), math.Inf(1)} {
		calls := []struct {
			name  string
			local func() error
			wire  string
		}{
			{"grant", func() error { return root.Grant(ctx, "alice", v) },
				`<methodName>quota.grant</methodName><params><param><value><string>alice</string></value></param>` +
					`<param><value><double>%s</double></value></param></params>`},
			{"charge", func() error {
				_, err := root.ChargeUsage(ctx, gae.ChargeRequest{User: "alice", Site: "siteA", CPUSeconds: v})
				return err
			}, `<methodName>quota.charge</methodName><params><param><value><struct>` +
				`<member><name>user</name><value><string>alice</string></value></member>` +
				`<member><name>site</name><value><string>siteA</string></value></member>` +
				`<member><name>cpu_seconds</name><value><double>%s</double></value></member>` +
				`</struct></value></param></params>`},
			{"cost", func() error { _, err := root.Cost(ctx, "siteA", v, 0); return err },
				`<methodName>quota.cost</methodName><params><param><value><string>siteA</string></value></param>` +
					`<param><value><double>%s</double></value></param><param><value><double>0</double></value></param></params>`},
		}
		wireV := map[bool]string{true: "NaN", false: fmt.Sprint(v)}[math.IsNaN(v)]
		if math.IsInf(v, 1) {
			wireV = "Inf"
		}
		for _, c := range calls {
			if err := c.local(); err == nil {
				t.Errorf("local %s of %v accepted", c.name, v)
			}
			doc := []byte(`<methodCall>` + fmt.Sprintf(c.wire, wireV) + `</methodCall>`)
			var out any
			err := xmlrpc.DecodeResponseInto(bytes.NewReader(serveDocAs(t, g, "root", "rootpw", doc)), &out)
			if _, isFault := xmlrpc.AsFault(err); !isFault {
				t.Errorf("wire %s of %s: %v, want a fault", c.name, wireV, err)
			}
		}
	}
	if after, _ := g.Quota.Balance("alice"); after != before {
		t.Fatalf("balance %v after refused calls, want %v", after, before)
	}
	if ops := journaled(t, dir); len(ops) != 0 {
		t.Fatalf("refused calls journaled: %+v", ops)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}
