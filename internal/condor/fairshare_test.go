package condor

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/fairshare"
	"repro/internal/simgrid"
)

// fairManager builds a manager on the pool's engine clock with decay
// disabled so usage assertions are exact.
func fairManager(p *Pool) *fairshare.Manager {
	return fairshare.NewManager(fairshare.Config{
		Clock:    p.grid.Engine.Clock(),
		HalfLife: -1,
	})
}

func TestFairShareOrdersNegotiation(t *testing.T) {
	g, p := testPool(t, 1)
	fs := fairManager(p)
	p.SetFairShare(fs)
	fs.RecordUsage("heavy", "siteA", 1000)

	heavy := mustSubmit(t, p, jobAd("heavy", 30, 0))
	light := mustSubmit(t, p, jobAd("light", 30, 0))
	g.Engine.Step()
	if got := mustJob(t, p, light).Status; got != StatusRunning {
		t.Fatalf("light job = %v, want running", got)
	}
	if got := mustJob(t, p, heavy).Status; got != StatusIdle {
		t.Fatalf("heavy job = %v, want idle", got)
	}
	// Static priority cannot buy the heavy tenant back in: among the idle
	// jobs (heavy@0, heavy@99, light@0), the light tenant leads and the
	// heavy tenant's own jobs order by static priority behind it.
	hot := mustSubmit(t, p, jobAd("heavy", 30, 99))
	light2 := mustSubmit(t, p, jobAd("light", 30, 0))
	if got := mustJob(t, p, light2).QueuePosition; got != 1 {
		t.Fatalf("light position = %d, want 1", got)
	}
	if got := mustJob(t, p, hot).QueuePosition; got != 2 {
		t.Fatalf("heavy hot-priority position = %d, want 2", got)
	}
	if got := mustJob(t, p, heavy).QueuePosition; got != 3 {
		t.Fatalf("heavy cold position = %d, want 3", got)
	}
}

// TestFairShareIsSetBeforeTheFirstJob: a pool's policy is set once, before
// it holds a job; setting one on a pool that holds a job panics.
func TestFairShareIsSetBeforeTheFirstJob(t *testing.T) {
	_, p := testPool(t, 1)
	p.SetFairShare(fairManager(p))
	mustSubmit(t, p, jobAd("alice", 10, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("SetFairShare on a pool holding a job did not panic")
		}
	}()
	p.SetFairShare(fairManager(p))
}

func TestFairShareRecordsCompletionUsage(t *testing.T) {
	g, p := testPool(t, 1)
	fs := fairManager(p)
	p.SetFairShare(fs)
	mustSubmit(t, p, jobAd("alice", 10, 0))
	g.Engine.RunFor(15 * time.Second)
	if u := fs.Usage("alice"); math.Abs(u-10) > 1e-6 {
		t.Fatalf("usage after completion = %v, want 10", u)
	}
	// Usage is attributed to the site, keyed for the scheduler tie-break.
	if u := fs.SiteUsage("alice", "siteA"); math.Abs(u-10) > 1e-6 {
		t.Fatalf("site usage = %v, want 10", u)
	}
	if u := fs.SiteUsage("alice", "elsewhere"); u != 0 {
		t.Fatalf("foreign site usage = %v", u)
	}
}

func TestFairShareRemovedJobChargesPartialUsage(t *testing.T) {
	g, p := testPool(t, 1)
	fs := fairManager(p)
	p.SetFairShare(fs)
	id := mustSubmit(t, p, jobAd("alice", 100, 0))
	g.Engine.RunFor(10 * time.Second)
	if err := p.Remove(id); err != nil {
		t.Fatal(err)
	}
	u := fs.Usage("alice")
	if u < 5 || u > 15 {
		t.Fatalf("partial usage = %v, want ≈10", u)
	}
}

func TestFairShareCheckpointBaseNotDoubleCounted(t *testing.T) {
	g, p := testPool(t, 1)
	fs := fairManager(p)
	p.SetFairShare(fs)
	ad := jobAd("alice", 30, 0).Set(AttrCheckpoint, true)
	if _, err := p.SubmitCheckpointed(ad, 20); err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(15 * time.Second)
	// Only the 10 CPU-seconds executed here count; the 20 carried in were
	// accounted by the site that ran them.
	if u := fs.Usage("alice"); math.Abs(u-10) > 1e-6 {
		t.Fatalf("usage = %v, want 10", u)
	}
	// A fully-covered checkpoint completes without occupying a machine —
	// it must not count as an allocation for the starvation guard: bob's
	// heavy usage would lose on effective priority, so only his (intact)
	// starvation drought can put the old job first.
	fs.RecordUsage("bob", "siteA", 1000)
	full := jobAd("bob", 30, 0).Set(AttrCheckpoint, true)
	if _, err := p.SubmitCheckpointed(full, 30); err != nil {
		t.Fatal(err)
	}
	g.Engine.Step()
	drought := fairshare.JobRef{Owner: "bob", Submitted: g.Engine.Now().Add(-time.Hour), Seq: 99}
	fresh := fairshare.JobRef{Owner: "carol", Submitted: g.Engine.Now(), Seq: 100}
	keys := fs.SortKeysAt(g.Engine.Now(), []fairshare.JobRef{drought, fresh})
	if !fairshare.LessKeys(drought, fresh, keys[0], keys[1]) {
		t.Fatal("zero-work completion reset bob's starvation drought")
	}
}

func TestFairShareStarvationGuardInPool(t *testing.T) {
	g, p := testPool(t, 1)
	fs := fairshare.NewManager(fairshare.Config{
		Clock:            p.grid.Engine.Clock(),
		HalfLife:         -1,
		StarvationWindow: 30 * time.Second,
	})
	p.SetFairShare(fs)
	// light hoards enormous usage, but its queued job is the only one
	// waiting while a long job occupies the machine.
	fs.RecordUsage("light", "siteA", 1e6)
	mustSubmit(t, p, jobAd("big", 120, 0))
	waiting := mustSubmit(t, p, jobAd("light", 10, 0))
	g.Engine.RunFor(40 * time.Second)
	// light's job has now starved past the window; a fresh zero-usage
	// tenant arrives — the guard must put the starved job first anyway.
	fresh := mustSubmit(t, p, jobAd("fresh", 10, 0))
	if got := mustJob(t, p, waiting).QueuePosition; got != 1 {
		t.Fatalf("starved job position = %d, want 1", got)
	}
	if got := mustJob(t, p, fresh).QueuePosition; got != 2 {
		t.Fatalf("fresh job position = %d, want 2", got)
	}
}

func TestFairShareFlockedUsageChargesExecutingSite(t *testing.T) {
	// Origin pool has no machines of its own; every job flocks to the
	// peer. Usage must land on the peer's site, where the work ran.
	g, origin := testPool(t, 0)
	peerSite := g.AddSite("siteB")
	peer := NewPool("poolB", g, peerSite)
	n := peerSite.AddNode(g.Engine, "siteB-n0", 1.0, simgrid.IdleLoad())
	peer.AddMachine(n, nil)
	origin.EnableFlocking(peer)
	fs := fairManager(origin)
	origin.SetFairShare(fs)

	mustSubmit(t, origin, jobAd("alice", 10, 0))
	g.Engine.RunFor(15 * time.Second)
	if u := fs.SiteUsage("alice", "siteB"); math.Abs(u-10) > 1e-6 {
		t.Fatalf("executing-site usage = %v, want 10", u)
	}
	if u := fs.SiteUsage("alice", "siteA"); u != 0 {
		t.Fatalf("origin-site usage = %v, want 0", u)
	}
}

// TestFlockedFlowIsRatedByItsOwnPool: a flocked job's usage flow on the
// peer's machine is the origin pool's to re-rate. A change to that node is
// news to the peer, the machine's owner, and the peer's wake re-rates only
// the flows of its own jobs: it leaves the origin's at the rate the origin
// gave it, without calling into the origin's policy under its own lock.
// The job's Close then reconciles the books to the measured CPU.
func TestFlockedFlowIsRatedByItsOwnPool(t *testing.T) {
	g, origin := testPool(t, 0)
	peerSite := g.AddSite("siteB")
	peer := NewPool("poolB", g, peerSite)
	n := peerSite.AddNode(g.Engine, "siteB-n0", 1.0, simgrid.IdleLoad())
	peer.AddMachine(n, nil)
	origin.EnableFlocking(peer)
	fsA, fsB := fairManager(origin), fairManager(peer)
	origin.SetFairShare(fsA)
	peer.SetFairShare(fsB)

	id := mustSubmit(t, origin, jobAd("alice", 30, 0))
	g.Engine.RunFor(10 * time.Second)
	if got := mustJob(t, origin, id); got.Status != StatusRunning || got.Node != "siteB-n0" {
		t.Fatalf("job is %v on %q, want running on the peer's siteB-n0", got.Status, got.Node)
	}
	before := fsA.Usage("alice")
	n.SetLoad(simgrid.ConstantLoad(0.5)) // the peer's node changes: the peer wakes with it dirty
	g.Engine.RunFor(10 * time.Second)
	rate := origin.job(id).flowRate
	if rate != 1 {
		t.Fatalf("flocked flow rate = %v after the peer's wake, want the origin's 1", rate)
	}
	if got := fsA.Usage("alice") - before; got != 10 {
		t.Fatalf("flocked flow accrued %v over 10 s after the peer's wake, want 10 at the origin's rate", got)
	}
	if u := fsB.Usage("alice"); u != 0 {
		t.Fatalf("peer's policy holds %v of alice's usage, want 0", u)
	}
	g.Engine.RunFor(time.Minute)
	if got := mustJob(t, origin, id).Status; got != StatusCompleted {
		t.Fatalf("job = %v, want completed", got)
	}
	if u := fsA.Usage("alice"); math.Abs(u-30) > 1e-6 {
		t.Fatalf("closed flow usage = %v, want the measured 30", u)
	}
}

func TestQueueAboveFollowsFairShareOrder(t *testing.T) {
	g, p := testPool(t, 1)
	fs := fairManager(p)
	p.SetFairShare(fs)
	fs.RecordUsage("heavy", "siteA", 1000)
	running := mustSubmit(t, p, jobAd("other", 100, 0))
	g.Engine.Step() // occupies the machine
	hot := mustSubmit(t, p, jobAd("heavy", 30, 99))
	cold := mustSubmit(t, p, jobAd("light", 30, 0))
	// Fair order puts light's job ahead of heavy's despite priority 99,
	// and queue-time inputs must agree with that order.
	above, err := p.QueueAbove(cold)
	if err != nil {
		t.Fatal(err)
	}
	if len(above) != 1 || above[0].ID != running {
		t.Fatalf("light's QueueAbove = %+v, want only the running job", above)
	}
	above, err = p.QueueAbove(hot)
	if err != nil {
		t.Fatal(err)
	}
	if len(above) != 2 || above[0].ID != running || above[1].ID != cold {
		t.Fatalf("heavy's QueueAbove = %+v, want running + light's job", above)
	}
}

// --- satellite: QueueAbove / SetPriority edge cases ---------------------

func TestQueueAboveExcludesTerminalAndEqual(t *testing.T) {
	g, p := testPool(t, 1)
	done := mustSubmit(t, p, jobAd("a", 5, 9))
	g.Engine.RunFor(10 * time.Second) // completes the prio-9 job
	if got := mustJob(t, p, done).Status; got != StatusCompleted {
		t.Fatalf("setup: %v", got)
	}
	running := mustSubmit(t, p, jobAd("b", 100, 7))
	g.Engine.Step() // running now occupies the machine
	equal := mustSubmit(t, p, jobAd("c", 10, 3))
	target := mustSubmit(t, p, jobAd("d", 10, 3))
	above, err := p.QueueAbove(target)
	if err != nil {
		t.Fatal(err)
	}
	// Only the running prio-7 job qualifies: the completed prio-9 job is
	// terminal and the prio-3 job is not strictly greater.
	if len(above) != 1 || above[0].ID != running {
		t.Fatalf("QueueAbove = %+v", above)
	}
	_ = equal
}

func TestSetPriorityEdgeCases(t *testing.T) {
	g, p := testPool(t, 1)
	done := mustSubmit(t, p, jobAd("a", 5, 0))
	g.Engine.RunFor(10 * time.Second)
	if err := p.SetPriority(done, 3); err == nil {
		t.Fatal("SetPriority on a completed job succeeded")
	}
	if err := p.SetPriority(99, 3); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("unknown job error = %v", err)
	}
	// Running jobs accept priority changes (affects QueueAbove, not the
	// running task), and the ad stays in sync.
	run := mustSubmit(t, p, jobAd("b", 100, 0))
	g.Engine.Step()
	if err := p.SetPriority(run, -5); err != nil {
		t.Fatal(err)
	}
	info := mustJob(t, p, run)
	if info.Priority != -5 || info.Status != StatusRunning {
		t.Fatalf("running job after SetPriority = %+v", info)
	}
	// Demoting one idle job reorders the queue tail.
	x := mustSubmit(t, p, jobAd("c", 10, 5))
	y := mustSubmit(t, p, jobAd("d", 10, 5))
	if err := p.SetPriority(x, -1); err != nil {
		t.Fatal(err)
	}
	if got := mustJob(t, p, y).QueuePosition; got != 1 {
		t.Fatalf("y position = %d, want 1", got)
	}
	if got := mustJob(t, p, x).QueuePosition; got != 2 {
		t.Fatalf("demoted x position = %d, want 2", got)
	}
}

// rateLog is a fair-share policy that records what the pool does to the
// usage flows it opens: calls lists, in call order, which owner's flow had
// its rate set to what; ops lists every call — open, rate, close — with
// its argument and the instant it was made. names maps the tenant handles
// it resolved back to their owners.
type rateLog struct {
	*fairshare.Manager
	now   func() time.Time
	calls []string
	ops   []flowOp
	names map[*fairshare.Tenant]string
}

type flowOp struct {
	op    string // "open", "rate" or "close"
	owner string
	v     float64 // the rate opened at or set, or the total closed with
	at    time.Time
}

func newRateLog(p *Pool) *rateLog {
	return &rateLog{Manager: fairManager(p), now: p.grid.Engine.Now, names: make(map[*fairshare.Tenant]string)}
}

func (r *rateLog) Tenant(owner string) *fairshare.Tenant {
	t := r.Manager.Tenant(owner)
	r.names[t] = owner
	return t
}

func (r *rateLog) record(op, owner string, v float64) {
	r.ops = append(r.ops, flowOp{op, owner, v, r.now()})
}

type loggedFlow struct {
	fairshare.UsageFlow
	log   *rateLog
	owner string
}

func (r *rateLog) OpenFlow(t *fairshare.Tenant, site string, rate float64) fairshare.UsageFlow {
	owner := r.names[t]
	r.record("open", owner, rate)
	return &loggedFlow{r.Manager.OpenFlow(t, site, rate), r, owner}
}

func (f *loggedFlow) SetRate(rate float64) {
	f.log.calls = append(f.log.calls, f.owner+"="+strconv.FormatFloat(rate, 'g', -1, 64))
	f.log.record("rate", f.owner, rate)
	f.UsageFlow.SetRate(rate)
}

func (f *loggedFlow) Close(total float64) {
	f.log.record("close", f.owner, total)
	f.UsageFlow.Close(total)
}

// TestFailRecoverWalkLiveJobsInSubmissionOrder pins what Fail and Recover
// touch and in what order: the running jobs, as submitted — not every job
// the pool ever held in whatever order a map yields them.
func TestFailRecoverWalkLiveJobsInSubmissionOrder(t *testing.T) {
	g, p := testPool(t, 8)
	pol := newRateLog(p)
	p.SetFairShare(pol)
	owners := []string{"h", "b", "f", "a", "g", "c", "e", "d"}
	for i, o := range owners {
		need := 500.0
		if i%4 == 1 {
			need = 5 // two jobs are long finished when the pool fails
		}
		mustSubmit(t, p, jobAd(o, need, 0))
	}
	mustSubmit(t, p, jobAd("queued", 500, 0)) // takes a freed machine
	g.Engine.RunFor(20 * time.Second)
	pol.calls = nil
	p.Fail()
	p.Recover()
	want := []string{"h=0", "f=0", "a=0", "g=0", "e=0", "d=0", "queued=0",
		"h=1", "f=1", "a=1", "g=1", "e=1", "d=1", "queued=1"}
	if !slices.Equal(pol.calls, want) {
		t.Fatalf("Fail then Recover set rates\n %v\nwant %v", pol.calls, want)
	}
}

// TestOwnersOfOneTenantGetOneStarvedPick: the owners "" and "anonymous"
// are one tenant. When both queue jobs and both starve, the guard promotes
// one job of that tenant per pass, the older of the two owners' oldest
// jobs, beside the other starved tenant's oldest; the rest of the tenant's
// jobs wait behind on its (low) effective priority. The stream's order is
// the reference sort's.
func TestOwnersOfOneTenantGetOneStarvedPick(t *testing.T) {
	for _, first := range []string{"", fairshare.Anonymous} {
		second := fairshare.Anonymous
		if first == fairshare.Anonymous {
			second = ""
		}
		g, p := testPool(t, 0) // no machines: nobody starts, so everybody starves
		fs := fairshare.NewManager(fairshare.Config{
			Clock:            g.Engine.Clock(),
			HalfLife:         -1,
			StarvationWindow: 30 * time.Second,
		})
		p.SetFairShare(fs)
		fs.RecordUsage(fairshare.Anonymous, "siteA", 1000)
		older := mustSubmit(t, p, jobAd(first, 10, 0))
		g.Engine.RunFor(time.Second)
		younger := mustSubmit(t, p, jobAd(second, 10, 5)) // its owner's oldest, and first by priority
		mustSubmit(t, p, jobAd(first, 10, 0))
		bob := mustSubmit(t, p, jobAd("bob", 10, 0))
		mustSubmit(t, p, jobAd(second, 10, 0))
		g.Engine.RunFor(time.Minute)

		label := "oldest owner " + strconv.Quote(first)
		checkOrderParity(t, p, label)
		got := orderIDs(p.idleOrdered())
		if want := []int{older, bob, younger}; !slices.Equal(got[:3], want) {
			t.Fatalf("%s: stream %v, want it to open %v (the tenant's one starved pick, bob's, then the tenant by priority)", label, got, want)
		}
	}
}
