package jobmon

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clarens"
	"repro/internal/classad"
	"repro/internal/condor"
	"repro/internal/monalisa"
	"repro/internal/simgrid"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

// callAs invokes method and decodes its reply into a T under CallInto's
// rules.
func callAs[T any](ctx context.Context, c *clarens.Client, method string, args ...any) (v T, err error) {
	err = c.CallInto(ctx, method, &v, args...)
	return v, err
}

// fixture: one-site grid with a pool and a jobmon service.
func newFixture(t *testing.T) (*simgrid.Grid, *condor.Pool, *monalisa.Repository, *Service) {
	t.Helper()
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("siteA")
	pool := condor.NewPool("poolA", g, site)
	pool.AddMachine(site.AddNode(g.Engine, "n1", 1, simgrid.IdleLoad()), nil)
	repo := monalisa.NewRepository()
	svc := NewService(g, repo)
	svc.Watch(pool)
	return g, pool, repo, svc
}

func submit(t *testing.T, pool *condor.Pool, cpu float64, prio int) int {
	t.Helper()
	ad := classad.New().
		Set(condor.AttrOwner, "alice").
		Set(condor.AttrCmd, "analysis").
		Set(condor.AttrCpuSeconds, cpu).
		Set(condor.AttrPriority, prio).
		Set(condor.AttrEstimate, cpu).
		Set(condor.AttrEnv, "MODE=test")
	id, err := pool.Submit(ad)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// stored counts the finished-job records.
func (s *Service) stored() int {
	return len(s.records)
}

// record fetches a finished-job record.
func (s *Service) record(pool string, id int) (condor.JobInfo, bool) {
	info, ok := s.records[jobKey{pool: pool, id: id}]
	return info, ok
}

func TestManagerLiveLookup(t *testing.T) {
	g, pool, _, svc := newFixture(t)
	id := submit(t, pool, 100, 0)
	g.Engine.RunFor(10 * time.Second)
	info, err := svc.Job("poolA", id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != condor.StatusRunning || info.Owner != "alice" {
		t.Fatalf("live info = %+v", info)
	}
	// Live lookups do not come from the records.
	if svc.stored() != 0 {
		t.Fatalf("%d records for a running job", svc.stored())
	}
}

func TestTerminalJobStoredInDB(t *testing.T) {
	g, pool, _, svc := newFixture(t)
	id := submit(t, pool, 10, 0)
	g.Engine.RunFor(15 * time.Second)
	if svc.stored() != 1 {
		t.Fatalf("records = %d, want 1", svc.stored())
	}
	stored, ok := svc.record("poolA", id)
	if !ok || stored.Status != condor.StatusCompleted {
		t.Fatalf("stored = %+v, %v", stored, ok)
	}
	// Job now answers from the records even if the pool dies.
	pool.Fail()
	info, err := svc.Job("poolA", id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != condor.StatusCompleted {
		t.Fatalf("post-failure info = %+v", info)
	}
}

func TestManagerFallsBackToLiveOnMiss(t *testing.T) {
	g, pool, _, svc := newFixture(t)
	id := submit(t, pool, 100, 0)
	g.Engine.RunFor(5 * time.Second)
	if _, ok := svc.record("poolA", id); ok {
		t.Fatal("running job unexpectedly in the records")
	}
	if _, err := svc.Job("poolA", id); err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if _, err := svc.Job("ghostpool", 1); err == nil {
		t.Fatal("unknown pool lookup succeeded")
	}
	if _, err := svc.Job("poolA", 999); err == nil {
		t.Fatal("unknown job lookup succeeded")
	}
}

func TestStatusChangePublishedToMonALISA(t *testing.T) {
	g, pool, repo, _ := newFixture(t)
	id := submit(t, pool, 10, 0)
	g.Engine.RunFor(15 * time.Second)
	src := monalisa.FormatJobSource("poolA", id)
	events := repo.Events(time.Time{}, src)
	if len(events) < 3 { // idle, idle->running, running->completed
		t.Fatalf("MonALISA events = %+v", events)
	}
	last := events[len(events)-1]
	if !strings.Contains(last.Detail, "completed") {
		t.Fatalf("last event = %+v", last)
	}
}

// TestLiveTransitionsAreNotBacklogged: a transition that leaves the job
// live goes to MonALISA when it happens, so a steered job that is paused
// and resumed for hours between two engine wake-ups costs the collector
// nothing — 10 000 suspend/resume transitions with no Drain leave its
// queue empty and the repository's bounded event log at its cap, in order.
func TestLiveTransitionsAreNotBacklogged(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("siteA")
	pool := condor.NewPool("poolA", g, site)
	pool.AddMachine(site.AddNode(g.Engine, "n1", 1, simgrid.IdleLoad()), nil)
	const eventCap = 512
	repo := monalisa.NewRepository(monalisa.WithEventCap(eventCap))
	svc := NewService(g, repo)
	svc.Watch(pool)
	id := submit(t, pool, 1e6, 0)
	g.Engine.RunFor(5 * time.Second)

	for i := 0; i < 5000; i++ {
		if err := pool.Suspend(id); err != nil {
			t.Fatal(err)
		}
		if err := pool.Resume(id); err != nil {
			t.Fatal(err)
		}
	}
	if queued := len(svc.events); queued != 0 {
		t.Fatalf("collector queues %d events with no terminal transition among them", queued)
	}
	events := repo.Events(time.Time{}, monalisa.FormatJobSource("poolA", id))
	if len(events) != eventCap {
		t.Fatalf("repository holds %d events, want its cap of %d", len(events), eventCap)
	}
	for i, e := range events {
		want := "running->suspended"
		if i%2 == 1 {
			want = "suspended->running"
		}
		if e.Detail != want {
			t.Fatalf("event %d of the last %d is %q, want %q", i, eventCap, e.Detail, want)
		}
	}

	// The terminal transition still waits for Drain, and is published
	// after everything that preceded it.
	if err := pool.Remove(id); err != nil {
		t.Fatal(err)
	}
	if svc.stored() != 0 {
		t.Fatal("the terminal snapshot was stored before Drain")
	}
	svc.Drain()
	if svc.stored() != 1 {
		t.Fatalf("records = %d after Drain, want 1", svc.stored())
	}
	events = repo.Events(time.Time{}, "")
	if n := len(events); events[n-2].Detail != "running->removed" || events[n-1].Detail != "removed" {
		t.Fatalf("last published events = %+v, want the removal and the record's publication", events[n-2:])
	}
}

func TestRunningProgressPublished(t *testing.T) {
	g, pool, repo, _ := newFixture(t)
	id := submit(t, pool, 120, 0)
	g.Engine.RunFor(60 * time.Second)
	src := monalisa.FormatJobSource("poolA", id)
	pts := repo.Series(src, monalisa.MetricJobProgress, time.Time{}, g.Engine.Now())
	if len(pts) < 5 {
		t.Fatalf("progress series = %d points", len(pts))
	}
	lastVal := pts[len(pts)-1].Value
	if lastVal < 0.4 || lastVal > 0.6 {
		t.Fatalf("progress at 60s = %v, want ≈0.5", lastVal)
	}
	// Monotone non-decreasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value {
			t.Fatalf("progress not monotone: %v", pts)
		}
	}
}

func TestQueuedJobsMetric(t *testing.T) {
	g, pool, repo, _ := newFixture(t)
	submit(t, pool, 1000, 5) // occupies the only machine
	submit(t, pool, 10, 0)   // queued
	submit(t, pool, 10, 0)   // queued
	g.Engine.RunFor(10 * time.Second)
	if got := repo.LatestValue("poolA", monalisa.MetricQueuedJobs, -1); got != 2 {
		t.Fatalf("queued jobs metric = %v", got)
	}
}

func TestManagerList(t *testing.T) {
	g, pool, _, svc := newFixture(t)
	submit(t, pool, 10, 0)
	submit(t, pool, 20, 0)
	g.Engine.RunFor(time.Second)
	jobs, err := svc.List("poolA")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("List = %d jobs", len(jobs))
	}
	if _, err := svc.List("ghost"); err == nil {
		t.Fatal("List of unknown pool succeeded")
	}
}

func TestInfoDTOFields(t *testing.T) {
	g, pool, _, svc := newFixture(t)
	id := submit(t, pool, 100, 3)
	g.Engine.RunFor(10 * time.Second)
	info, err := svc.Job("poolA", id)
	if err != nil {
		t.Fatal(err)
	}
	w, err := xmlrpc.Marshal(InfoDTO(info))
	if err != nil {
		t.Fatal(err)
	}
	m := w.(map[string]any)
	// Every paper-mandated field must keep its wire name.
	for _, key := range []string{
		"status", "remaining_estimate", "elapsed_seconds", "estimated_runtime",
		"queue_position", "priority", "submit_time", "start_time",
		"cpu_seconds", "input_mb", "output_mb", "owner", "env",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("InfoDTO wire struct missing %q", key)
		}
	}
	if m["owner"] != "alice" || m["priority"] != 3 || m["env"] != "MODE=test" {
		t.Fatalf("struct = %v", m)
	}
	if _, ok := m["completion_time"]; ok {
		t.Error("running job has completion_time")
	}
	// The struct must be XML-RPC encodable as-is.
	if _, err := xmlrpc.EncodeResponse(w); err != nil {
		t.Fatalf("struct not encodable: %v", err)
	}
}

// rpcFixture hosts the jobmon service on a Clarens server over HTTP.
func rpcFixture(t *testing.T) (*simgrid.Grid, *condor.Pool, *clarens.Client) {
	t.Helper()
	g, pool, _, svc := newFixture(t)
	srv := clarens.NewServer("host", nil)
	srv.RegisterService("jobmon", "job monitoring service", gae.Handlers("jobmon", gae.NewClient(gae.Services{JobMon: svc.API()}, nil)))
	srv.ACL.Allow("*", "jobmon.*") // monitoring data is world-readable
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	srv.SetBaseURL(hs.URL)
	return g, pool, clarens.NewClient(hs.URL)
}

func TestRPCStatusAndInfo(t *testing.T) {
	g, pool, c := rpcFixture(t)
	id := submit(t, pool, 100, 0)
	g.Engine.RunFor(10 * time.Second)
	ctx := context.Background()
	status, err := callAs[string](ctx, c, "jobmon.status", "poolA", id)
	if err != nil {
		t.Fatal(err)
	}
	if status != "running" {
		t.Fatalf("status = %q", status)
	}
	info, err := callAs[map[string]any](ctx, c, "jobmon.info", "poolA", id)
	if err != nil {
		t.Fatal(err)
	}
	if info["owner"] != "alice" {
		t.Fatalf("info = %v", info)
	}
	wall, err := callAs[float64](ctx, c, "jobmon.wallclock", "poolA", id)
	if err != nil {
		t.Fatal(err)
	}
	if wall < 8 || wall > 11 {
		t.Fatalf("wallclock = %v", wall)
	}
	prog, err := callAs[float64](ctx, c, "jobmon.progress", "poolA", id)
	if err != nil {
		t.Fatal(err)
	}
	if prog < 0.08 || prog > 0.12 {
		t.Fatalf("progress = %v", prog)
	}
}

func TestRPCListAndPools(t *testing.T) {
	g, pool, c := rpcFixture(t)
	submit(t, pool, 10, 0)
	submit(t, pool, 20, 0)
	g.Engine.RunFor(time.Second)
	ctx := context.Background()
	jobs, err := callAs[[]any](ctx, c, "jobmon.list", "poolA")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("list = %d", len(jobs))
	}
	pools, err := callAs[[]any](ctx, c, "jobmon.pools")
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) != 1 || pools[0] != "poolA" {
		t.Fatalf("pools = %v", pools)
	}
}

func TestRPCErrors(t *testing.T) {
	_, _, c := rpcFixture(t)
	ctx := context.Background()
	if _, err := c.Call(ctx, "jobmon.status", "poolA"); !xmlrpc.IsFault(err, xmlrpc.FaultInvalidParams) {
		t.Fatalf("short args error = %v", err)
	}
	if _, err := c.Call(ctx, "jobmon.status", "poolA", 999); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
		t.Fatalf("missing job error = %v", err)
	}
	if _, err := c.Call(ctx, "jobmon.list", "ghost"); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
		t.Fatalf("ghost pool error = %v", err)
	}
	if _, err := c.Call(ctx, "jobmon.status", 5, "x"); !xmlrpc.IsFault(err, xmlrpc.FaultInvalidParams) {
		t.Fatalf("type error = %v", err)
	}
}

func TestRemainingAndQueuePositionRPC(t *testing.T) {
	g, pool, c := rpcFixture(t)
	submit(t, pool, 1000, 9)      // hogs the machine
	id := submit(t, pool, 100, 0) // queued
	g.Engine.RunFor(5 * time.Second)
	ctx := context.Background()
	qp, err := callAs[int](ctx, c, "jobmon.queueposition", "poolA", id)
	if err != nil {
		t.Fatal(err)
	}
	if qp != 1 {
		t.Fatalf("queue position = %d", qp)
	}
	rem, err := callAs[float64](ctx, c, "jobmon.remaining", "poolA", id)
	if err != nil {
		t.Fatal(err)
	}
	if rem != 100 { // estimate 100, no wallclock yet
		t.Fatalf("remaining = %v", rem)
	}
	el, err := callAs[float64](ctx, c, "jobmon.elapsed", "poolA", id)
	if err != nil {
		t.Fatal(err)
	}
	if el < 4 || el > 6 {
		t.Fatalf("elapsed = %v", el)
	}
}

// TestPollSnapshotsLiveJobsOnly pins the cost of a progress poll: after
// many completed jobs it snapshots the jobs still live, not every job the
// pool ever held, and publishes what a walk over all of them would.
func TestPollSnapshotsLiveJobsOnly(t *testing.T) {
	g, pool, repo, svc := newFixture(t)
	const done = 1000
	for i := 0; i < done; i++ {
		submit(t, pool, 1, 0)
	}
	g.Engine.RunFor((done + 10) * time.Second)
	submit(t, pool, 1e6, 5) // runs
	submit(t, pool, 10, 0)  // queued
	submit(t, pool, 10, 0)  // queued
	g.Engine.RunFor(10 * time.Second)

	all, err := pool.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	queued := 0
	for _, j := range all {
		switch j.Status {
		case condor.StatusRunning:
			want = append(want, fmt.Sprintf("%s %s %v", monalisa.FormatJobSource(j.Pool, j.ID), monalisa.MetricJobProgress, j.Progress))
		case condor.StatusIdle:
			queued++
		}
	}
	want = append(want, fmt.Sprintf("poolA %s %v", monalisa.MetricQueuedJobs, float64(queued)))
	if len(all) != done+3 || len(want) != 2 || queued != 2 {
		t.Fatalf("pool holds %d jobs, %d queued, %d running; want %d, 2 and 1", len(all), queued, len(want)-1, done+3)
	}
	// What the poll published: the last point of every series it grew.
	now := g.Engine.Now()
	held := map[monalisa.Metric]int{}
	for _, m := range repo.Metrics() {
		held[m] = len(repo.Series(m.Source, m.Name, time.Time{}, now))
	}
	svc.publishProgress(now)
	var got []string
	for _, m := range repo.Metrics() {
		if s := repo.Series(m.Source, m.Name, time.Time{}, now); len(s) > held[m] {
			got = append(got, fmt.Sprintf("%s %s %v", m.Source, m.Name, s[len(s)-1].Value))
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("poll published %v, want %v", got, want)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	svc.publishProgress(g.Engine.Now())
	runtime.ReadMemStats(&after)
	// A snapshot is a condor.JobInfo; the series the poll appends to and
	// the repository's bookkeeping are a few more.
	if got, room := after.TotalAlloc-before.TotalAlloc, uint64(64*unsafe.Sizeof(condor.JobInfo{})); got > room {
		t.Fatalf("one poll allocated %d bytes, %d snapshots' worth; want under 64 with 3 jobs live and %d held",
			got, got/uint64(unsafe.Sizeof(condor.JobInfo{})), len(all))
	}
}

// TestTransitionTextIsSprintf: the table publish reads its texts from says
// what formatting each transition said, for every pair of statuses a byte
// holds, the ones past the table included.
func TestTransitionTextIsSprintf(t *testing.T) {
	for from := 0; from < 256; from++ {
		for to := 0; to < 256; to++ {
			f, g := condor.Status(from), condor.Status(to)
			if got, want := transition(f, g), fmt.Sprintf("%v->%v", f, g); got != want {
				t.Fatalf("transition(%d, %d) = %q, want %q", from, to, got, want)
			}
		}
	}
}
