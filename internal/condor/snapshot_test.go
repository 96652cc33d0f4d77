package condor

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
	"repro/internal/telemetry"
)

const testTTL = 10 * time.Minute

// restoredPool builds a second grid/pool with the same machine layout as
// testPool and advances its engine to the donor's capture instant — the
// state a crash-recovered process presents before Restore runs.
func restoredPool(t *testing.T, nodes int, at time.Duration) *Pool {
	t.Helper()
	g2, p2 := testPool(t, nodes)
	g2.Engine.RunFor(at)
	return p2
}

func TestSnapshotRoundTrip(t *testing.T) {
	g, p := testPool(t, 2)
	running := mustSubmit(t, p, jobAd("alice", 300, 0))
	mustSubmit(t, p, jobAd("bob", 200, 3))
	queued := mustSubmit(t, p, jobAd("carol", 100, 0)) // 2 nodes: third job waits
	g.Engine.RunFor(30 * time.Second)

	st := p.Export(testTTL)
	if len(st.Jobs) != 3 {
		t.Fatalf("exported %d jobs, want 3", len(st.Jobs))
	}

	p2 := restoredPool(t, 2, 30*time.Second)
	if err := p2.Restore(st); err != nil {
		t.Fatal(err)
	}
	// A re-export at the same instant is indistinguishable from the
	// original capture — the codec round-trips losslessly.
	if st2 := p2.Export(testTTL); !reflect.DeepEqual(st, st2) {
		t.Fatalf("round-trip diverged:\n got %+v\nwant %+v", st2, st)
	}
	if got := mustJob(t, p2, running); got.Status != StatusRunning || got.Node == "" {
		t.Fatalf("restored running job = %+v", got)
	}
	if got := mustJob(t, p2, queued); got.Status != StatusIdle {
		t.Fatalf("restored queued job = %+v", got)
	}
}

func TestRestoreLiveLeaseResumesWork(t *testing.T) {
	g, p := testPool(t, 1)
	id := mustSubmit(t, p, jobAd("alice", 100, 0))
	g.Engine.RunFor(40 * time.Second)
	st := p.Export(testTTL)

	p2 := restoredPool(t, 1, 40*time.Second)
	if err := p2.Restore(st); err != nil {
		t.Fatal(err)
	}
	info := mustJob(t, p2, id)
	if info.Status != StatusRunning {
		t.Fatalf("status = %v, want running", info.Status)
	}
	if info.CPUSeconds < 35 {
		t.Fatalf("CPU accrual lost across restore: %v", info.CPUSeconds)
	}
	// Only the remaining ~60s of work is left, not a fresh 100.
	p2.grid.Engine.RunFor(70 * time.Second)
	if got := mustJob(t, p2, id); got.Status != StatusCompleted {
		t.Fatalf("restored job did not finish remaining work: %+v", got)
	}
}

func TestRestoreExpiredLeaseRequeues(t *testing.T) {
	g, p := testPool(t, 2)
	plain := mustSubmit(t, p, jobAd("alice", 500, 0))
	ckpt := mustSubmit(t, p, jobAd("bob", 500, 0).Set(AttrCheckpoint, true))
	g.Engine.RunFor(60 * time.Second)
	st := p.Export(testTTL)

	// The snapshot sat on disk past the lease TTL: recovery happens
	// after every lease has expired.
	p2 := restoredPool(t, 2, 60*time.Second+testTTL+time.Second)
	for _, js := range st.Jobs {
		if js.LeaseExpires.After(p2.grid.Engine.Now()) {
			t.Fatalf("job %d lease still live at restore instant", js.ID)
		}
	}
	if err := p2.Restore(st); err != nil {
		t.Fatal(err)
	}
	st2 := p2.Export(testTTL)
	byID := make(map[int]int)
	for i, js := range st2.Jobs {
		byID[js.ID] = i
	}
	// Both jobs requeued idle; only the checkpointable one keeps its
	// accrued CPU-seconds — requeueing is a migration in all but name.
	if js := st2.Jobs[byID[plain]]; Status(js.Status) != StatusIdle || js.CPUSeconds != 0 {
		t.Fatalf("non-checkpointable job after expired lease = %+v", js)
	}
	if js := st2.Jobs[byID[ckpt]]; Status(js.Status) != StatusIdle || js.CPUSeconds < 55 {
		t.Fatalf("checkpointable job after expired lease = %+v", js)
	}
	// The pool is healthy: the requeued jobs negotiate back onto machines.
	p2.grid.Engine.RunFor(time.Second)
	if got := mustJob(t, p2, plain); got.Status != StatusRunning {
		t.Fatalf("requeued job did not re-match: %+v", got)
	}
}

func TestRestoreMissingMachineRequeues(t *testing.T) {
	g, p := testPool(t, 2)
	a := mustSubmit(t, p, jobAd("alice", 300, 0))
	b := mustSubmit(t, p, jobAd("bob", 300, 0))
	g.Engine.RunFor(10 * time.Second)
	st := p.Export(testTTL)

	// The recovered deployment lost a node: one lease names a machine
	// that no longer exists and must requeue even though it is live.
	p2 := restoredPool(t, 1, 10*time.Second)
	if err := p2.Restore(st); err != nil {
		t.Fatal(err)
	}
	ia, ib := mustJob(t, p2, a), mustJob(t, p2, b)
	var running, idle int
	for _, info := range []JobInfo{ia, ib} {
		switch info.Status {
		case StatusRunning:
			running++
		case StatusIdle:
			idle++
		}
	}
	if running != 1 || idle != 1 {
		t.Fatalf("after losing a node: %v / %v (want one rebound, one requeued)",
			ia.Status, ib.Status)
	}
}

func TestRestoreIntoNonEmptyPoolFails(t *testing.T) {
	g, p := testPool(t, 1)
	mustSubmit(t, p, jobAd("alice", 10, 0))
	st := p.Export(testTTL)
	_ = g
	if err := p.Restore(st); err == nil {
		t.Fatal("restore into non-empty pool accepted")
	}
}

// TestRestoreRejectsIDsOutsideTheTable: the job table is indexed by ID, so
// a snapshot naming a job outside the IDs it says it handed out is
// malformed, not a table to grow.
func TestRestoreRejectsIDsOutsideTheTable(t *testing.T) {
	g, p := testPool(t, 1)
	mustSubmit(t, p, jobAd("alice", 10, 0))
	mustSubmit(t, p, jobAd("bob", 10, 0))
	g.Engine.RunFor(5 * time.Second)
	for _, id := range []int{0, -3, 3, 1 << 40} {
		st := p.Export(testTTL)
		st.Jobs[1].ID = id
		if err := restoredPool(t, 1, 5*time.Second).Restore(st); err == nil {
			t.Errorf("snapshot with next ID %d and a job %d restored", st.NextID, id)
		}
	}
	st := p.Export(testTTL)
	st.NextID = -1
	if err := restoredPool(t, 1, 5*time.Second).Restore(st); err == nil {
		t.Error("snapshot with next ID -1 restored")
	}
	// IDs the snapshot skips stay free slots; the next submission follows
	// the allocator, not the jobs present.
	st = p.Export(testTTL)
	st.NextID = 5
	p2 := restoredPool(t, 1, 5*time.Second)
	if err := p2.Restore(st); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Job(4); !errors.Is(err, ErrNoSuchJob) {
		t.Errorf("Job(4) of a snapshot that skipped it: %v", err)
	}
	if jobs, err := p2.Jobs(); err != nil || len(jobs) != 2 {
		t.Errorf("Jobs() = %d jobs, %v, want the 2 restored", len(jobs), err)
	}
	if id := mustSubmit(t, p2, jobAd("carol", 10, 0)); id != 6 {
		t.Errorf("first submission after restore got ID %d, want 6", id)
	}
}

// submitFields is everything newJob parses out of an ad at submit time —
// what the negotiation and completion paths read instead of the ad.
type submitFields struct {
	owner, reqArch, reqOpSys, rankClass string
	priority                            int
	need, failAfter                     float64
	hasOutput, compiled, rankClassOK    bool
}

func submitFieldsOf(p *Pool, j *job) submitFields {
	f := submitFields{
		owner: j.owner, hasOutput: j.hasOutput,
		reqArch: p.constraints[j.reqArch], reqOpSys: p.constraints[j.reqOpSys],
		priority: j.priority,
		need:     j.need, failAfter: j.failAfter,
		compiled: j.matcher != nil,
	}
	if j.matcher != nil {
		f.rankClass, f.rankClassOK = j.matcher.RankClass()
	}
	return f
}

// TestRestoredJobsCarrySubmitFields pins that recovery goes through the
// same constructor as Submit: a job restored idle, one re-bound to its
// leased machine and one requeued after losing its machine each hold
// exactly the fields a freshly submitted twin holds. A field cached at
// submit but skipped by Restore recovers as zero, silently — a requeued
// job with need 0 "completes" the moment it is matched.
func TestRestoredJobsCarrySubmitFields(t *testing.T) {
	ads := []*classad.Ad{
		jobAd("alice", 500, 2).Set(AttrOutputFile, "alice.root").Set(AttrOutputMB, 7).
			MustSetExpr(AttrRequirements, `TARGET.Arch == "x86" && TARGET.OpSys == "LINUX"`),
		jobAd("bob", 400, 1).Set(AttrOutputFile, "bob.root").Set(AttrFailAfter, 9999).
			MustSetExpr(AttrRank, "TARGET.Mips"),
		jobAd("carol", 300, 0).Set(AttrOutputFile, "carol.root").Set(AttrOutputMB, 3),
	}
	g, p := testPool(t, 2)
	_, twin := testPool(t, 2)
	var ids []int
	for _, ad := range ads {
		ids = append(ids, mustSubmit(t, p, ad))
		mustSubmit(t, twin, ad)
	}
	g.Engine.RunFor(60 * time.Second) // two run, carol waits
	st := p.Export(testTTL)

	// The recovered deployment kept one node: the lease on it re-binds,
	// the other running job requeues, the idle one restores idle.
	p2 := restoredPool(t, 1, 60*time.Second)
	if err := p2.Restore(st); err != nil {
		t.Fatal(err)
	}
	states := map[Status]int{}
	for i, id := range ids {
		got, want := submitFieldsOf(p2, p2.job(id)), submitFieldsOf(twin, twin.job(id))
		if got != want {
			t.Errorf("job %d restored with %+v,\n a submitted twin has %+v", id, got, want)
		}
		constrains := ads[i].Has(AttrRequirements) || ads[i].Has(AttrRank)
		if want.need <= 0 || !want.hasOutput || want.compiled != constrains {
			t.Fatalf("job %d: vacuous twin %+v", id, want)
		}
		states[p2.job(id).status]++
	}
	if states[StatusRunning] != 1 || states[StatusIdle] != 2 {
		t.Fatalf("restored states %v, want one re-bound and two idle (one requeued, one queued)", states)
	}

	// And the fields are live: every job runs its full remaining work on
	// the one node and leaves its declared output behind.
	p2.grid.Engine.RunFor(time.Second)
	for _, id := range ids {
		if got := mustJob(t, p2, id); got.Status == StatusCompleted {
			t.Fatalf("job %d completed one tick after restore: %+v", id, got)
		}
	}
	p2.grid.Engine.RunFor(1300 * time.Second)
	for i, id := range ids {
		if got := mustJob(t, p2, id); got.Status != StatusCompleted {
			t.Fatalf("job %d did not finish after restore: %+v", id, got)
		}
		name := text(byName(ads[i], AttrOutputFile))
		f, ok := p2.site.Storage().Get(name)
		if want := num(byName(ads[i], AttrOutputMB), 1); !ok || f.SizeMB != want {
			t.Errorf("output %s after restore = %+v (present %v), want %v MB", name, f, ok, want)
		}
	}
}

// TestRestoredRunningJobKeepsWallClock: a job re-bound to its leased
// machine carries the wall-clock it had accumulated — on a Mips-2 node
// half its CPU-seconds, where the snapshot's CPU-seconds alone restored as
// all of them — and finishes with the figure an uninterrupted run reports.
func TestRestoredRunningJobKeepsWallClock(t *testing.T) {
	g, p := shapedPool(t, 2, 0)
	id := mustSubmit(t, p, jobAd("alice", 100, 0))
	g.Engine.RunFor(20 * time.Second)
	live := mustJob(t, p, id)
	if live.Status != StatusRunning || live.WallClock <= 0 || live.WallClock.Seconds()*2 != live.CPUSeconds {
		t.Fatalf("live job: %+v", live)
	}

	g2, p2 := shapedPool(t, 2, 0)
	g2.Engine.RunFor(20 * time.Second)
	if err := p2.Restore(p.Export(testTTL)); err != nil {
		t.Fatal(err)
	}
	if got := mustJob(t, p2, id); got != live {
		t.Errorf("re-bound job differs from the live one:\n got %+v\nwant %+v", got, live)
	}
	g.Engine.RunFor(100 * time.Second)
	g2.Engine.RunFor(100 * time.Second)
	want := mustJob(t, p, id)
	if want.Status != StatusCompleted || want.WallClock != 50*time.Second {
		t.Fatalf("uninterrupted run: %v after %v, want completed after 50s", want.Status, want.WallClock)
	}
	if got := mustJob(t, p2, id); got != want {
		t.Errorf("recovered run ended differently:\n got %+v\nwant %+v", got, want)
	}
}

// TestRestoredPoolReopensUsageFlows: a recovered pool under a fair-share
// manager accounts its re-bound jobs the way the process that never
// crashed does — through usage flows. So it wakes for completions and for
// the load boundaries its flows are re-rated at, not at every tick until
// the last pre-crash job ends, and every tenant's usage ends where the
// uncrashed twin's does (both sides accrue in closed form; the recovered
// side's integral is cut once more, at the capture instant: the flow
// path's 1e-9 relative tolerance, "only float association differs"). Under
// the stepped load the capture falls in mid-segment: the recovered flows
// open at the rate of the segment in force — at nothing, for the suspended
// job — and must find the boundaries still ahead. The nodes are registered
// ahead of the pool, so a task starts accruing at the boundary its flow
// opens at: behind a pool that goes first, a task also accrues the tick
// that ends at its placement, which its flow only makes up at Close — work
// a capture in between attributes to the job and not yet to the tenant.
func TestRestoredPoolReopensUsageFlows(t *testing.T) {
	epoch := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	steps := []time.Duration{400 * time.Second, 800 * time.Second}
	t.Run("idle", func(t *testing.T) { testRestoredPoolReopensUsageFlows(t, simgrid.IdleLoad(), 0) })
	t.Run("stepped", func(t *testing.T) {
		testRestoredPoolReopensUsageFlows(t, simgrid.StepLoad(epoch, steps, []float64{0.25, 0.5, 0}), len(steps))
	})
}

func testRestoredPoolReopensUsageFlows(t *testing.T, load simgrid.Load, boundaries int) {
	build := func() (*simgrid.Grid, *Pool, *fairshare.Manager, *telemetry.Registry) {
		g := simgrid.NewGrid(time.Second, 1)
		site := g.AddSite("siteA")
		var nodes []*simgrid.Node
		for i := 0; i < 4; i++ {
			nodes = append(nodes, site.AddNode(g.Engine, nodeName(i), 1, load))
		}
		p := NewPool("poolA", g, site)
		for _, n := range nodes {
			p.AddMachine(n, nil)
		}
		fs := fairshare.NewManager(fairshare.Config{Clock: g.Engine.Clock(), HalfLife: time.Hour})
		reg := telemetry.NewRegistry()
		p.SetFairShare(fs)
		p.SetTelemetry(reg)
		return g, p, fs, reg
	}
	g, p, fs, _ := build()
	mustSubmit(t, p, jobAd("alice", 300, 0))
	paused := mustSubmit(t, p, jobAd("alice", 700, 0))
	mustSubmit(t, p, jobAd("bob", 500, 0))
	mustSubmit(t, p, jobAd("bob", 36000, 0)) // outlives the run: the job a per-tick pool never stops watching
	g.Engine.RunFor(100 * time.Second)
	if err := p.Suspend(paused); err != nil {
		t.Fatal(err)
	}

	g2, p2, fs2, reg2 := build()
	g2.Engine.RunFor(100 * time.Second)
	fs2.Restore(fs.Export()) // accounts first: a flow feeds the accounts it finds
	if err := p2.Restore(p.Export(testTTL)); err != nil {
		t.Fatal(err)
	}
	wakes0 := reg2.Snapshot().Total("pool_wakes_total")
	for _, e := range []*simgrid.Engine{g.Engine, g2.Engine} {
		e.RunFor(1000 * time.Second)
	}
	completed := 0
	jobs, err := p2.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Status == StatusCompleted {
			completed++
		}
	}
	if completed != 2 {
		t.Fatalf("%d jobs completed after recovery, want 2", completed)
	}
	if wakes := reg2.Snapshot().Total("pool_wakes_total") - wakes0; wakes > float64(completed+boundaries)+2 {
		t.Errorf("recovered pool woke %v times over 1000 ticks for %d completions and %d load boundaries", wakes, completed, boundaries)
	}
	for _, tenant := range []string{"alice", "bob"} {
		want, got := fs.Usage(tenant), fs2.Usage(tenant)
		if want <= 0 || math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: usage %v after recovery, %v without the crash", tenant, got, want)
		}
		if want, got := fs.SiteUsage(tenant, "siteA"), fs2.SiteUsage(tenant, "siteA"); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s at siteA: usage %v after recovery, %v without the crash", tenant, got, want)
		}
	}
}

// A snapshot shows the optional attributes a job's ad carries, found
// whatever their spelling, read from an expression, and zero for a value
// of another kind: for ads carrying each of the five, all five at once,
// and none — submitted, and restored from a snapshot.
func TestJobInfoReadsWhatTheAdCarries(t *testing.T) {
	base := func() *classad.Ad { return classad.New().Set(AttrOwner, "alice").Set(AttrCpuSeconds, 50) }
	type shown struct {
		cmd, env                    string
		estimate, inputMB, outputMB float64
	}
	cases := []struct {
		ad   *classad.Ad
		want shown
	}{
		{base(), shown{}},
		{base().Set(AttrCmd, "reco.sh"), shown{cmd: "reco.sh"}},
		{base().Set("cmd", "skim.sh"), shown{cmd: "skim.sh"}},
		{base().Set(AttrCmd, 42), shown{}},
		{base().Set(AttrEnv, "A=1"), shown{env: "A=1"}},
		{base().Set("ENV", "B=2;C=3"), shown{env: "B=2;C=3"}},
		{base().Set(AttrEstimate, 120.5), shown{estimate: 120.5}},
		{base().Set("estimatedruntime", 30), shown{estimate: 30}},
		{base().Set(AttrInputMB, 7), shown{inputMB: 7}},
		{base().MustSetExpr("inputMB", "CpuSeconds / 10"), shown{inputMB: 5}},
		{base().Set(AttrOutputMB, 3.5), shown{outputMB: 3.5}},
		{base().Set("OUTPUTMB", "many"), shown{}},
		{base().Set(AttrCmd, "all.sh").Set(AttrEnv, "X=1").Set(AttrEstimate, 60).
			Set(AttrInputMB, 1.5).Set(AttrOutputMB, 2).Set(AttrOutputFile, "all.root"),
			shown{"all.sh", "X=1", 60, 1.5, 2}},
	}
	_, p := testPool(t, 1)
	for _, c := range cases {
		mustSubmit(t, p, c.ad)
	}
	restored := restoredPool(t, 1, 0)
	if err := restored.Restore(p.Export(testTTL)); err != nil {
		t.Fatal(err)
	}
	for _, pool := range []*Pool{p, restored} {
		infos, err := pool.Jobs()
		if err != nil || len(infos) != len(cases) {
			t.Fatalf("Jobs() = %d jobs, %v, want %d", len(infos), err, len(cases))
		}
		for i, got := range infos {
			if have := (shown{got.Cmd, got.Env, got.EstimatedRuntime, got.InputMB, got.OutputMB}); have != cases[i].want {
				t.Errorf("job of %s shows %+v, want %+v", cases[i].ad, have, cases[i].want)
			}
		}
	}
}
