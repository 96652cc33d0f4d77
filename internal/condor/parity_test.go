package condor

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
)

// The golden-parity suite: the indexed negotiator (per-cycle machine
// snapshots, incremental free buckets, compiled matchers) must reproduce
// the reference negotiator's (oracle_test.go) job→machine assignments exactly —
// including flocking spillover, fair-share ordering, Requirements-
// constrained jobs, checkpoint-complete submissions, and fault injection.

// parityOutcome is the comparable footprint of one job after a run.
type parityOutcome struct {
	Pool       string
	ID         int
	Status     Status
	Node       string
	Start      time.Time
	Completion time.Time
}

// paritySubmission is one scheduled submit in the seeded workload.
type paritySubmission struct {
	tick    int // engine step index at which to submit
	pool    int // 0 = site A's pool, 1 = site B's pool
	ad      *classad.Ad
	ckptCPU float64 // >0: use SubmitCheckpointed
}

// parityWorkload builds a deterministic submission schedule from seed.
// Ads are built fresh per call so the two runs share no mutable state.
func parityWorkload(seed int64) []paritySubmission {
	rng := rand.New(rand.NewSource(seed))
	owners := []string{"alice", "bob", "carol"}
	var subs []paritySubmission
	for i := 0; i < 120; i++ {
		ad := classad.New().
			Set(AttrOwner, owners[rng.Intn(len(owners))]).
			Set(AttrCpuSeconds, float64(1+rng.Intn(25))).
			Set(AttrPriority, rng.Intn(4)).
			Set("ImageSize", 50+rng.Intn(300))
		switch rng.Intn(5) {
		case 0:
			ad.MustSetExpr(AttrRequirements, `TARGET.Arch == "x86" && TARGET.LoadAvg < 0.8`)
		case 1:
			ad.MustSetExpr(AttrRequirements, `Arch == "sparc"`)
		case 2:
			ad.MustSetExpr(AttrRequirements, `TARGET.Disk >= MY.ImageSize`)
		case 3:
			ad.MustSetExpr(AttrRequirements, `TARGET.OpSys == "LINUX" && TARGET.Mips >= 1`)
		}
		switch rng.Intn(3) {
		case 0:
			ad.MustSetExpr(AttrRank, "TARGET.Mips")
		case 1:
			ad.MustSetExpr(AttrRank, "10 - LoadAvg * 10")
		}
		if rng.Intn(10) == 0 {
			ad.Set(AttrFailAfter, 2.0)
		}
		sub := paritySubmission{tick: rng.Intn(120), pool: rng.Intn(2), ad: ad}
		if rng.Intn(12) == 0 {
			// Checkpoint-complete migrant: all work already done elsewhere,
			// completes the instant it wins an offer.
			ad.Set(AttrCheckpoint, true)
			need := num(byName(ad, AttrCpuSeconds), 0)
			sub.ckptCPU = need + 1
		}
		subs = append(subs, sub)
	}
	return subs
}

// runParityScenario replays the seeded workload on a fresh two-site grid
// with mutual flocking and a fair-share manager, using either the
// reference or the indexed negotiator, and returns every job's outcome.
func runParityScenario(t *testing.T, seed int64, reference bool) []parityOutcome {
	t.Helper()
	g := simgrid.NewGrid(time.Second, 1)
	siteA, siteB := g.AddSite("siteA"), g.AddSite("siteB")
	poolA, poolB := NewPool("poolA", g, siteA), NewPool("poolB", g, siteB)
	if reference {
		poolA.useReferenceNegotiator()
		poolB.useReferenceNegotiator()
	}
	poolA.EnableFlocking(poolB)
	poolB.EnableFlocking(poolA)

	for i := 0; i < 10; i++ {
		arch := "x86"
		if i%3 == 0 {
			arch = "sparc"
		}
		load := simgrid.ConstantLoad(float64(i%5) / 10)
		adA := classad.New().Set("Arch", arch).Set("Disk", 100+40*i)
		if i == 7 {
			// One of site A's machines constrains its jobs too, so a job
			// without Requirements or Rank meets machines with and without.
			adA.MustSetExpr(AttrRequirements, "TARGET.ImageSize <= 200")
		}
		poolA.AddMachine(siteA.AddNode(g.Engine, fmt.Sprintf("a%02d", i), float64(1+i%3), load), adA)
		adB := classad.New().Set("Arch", arch).Set("Disk", 80+60*i)
		if i == 4 {
			// Target-dependent Arch: unresolvable on the machine ad alone,
			// so it lands in the catch-all bucket and must stay matchable
			// by arch-constrained jobs (every workload job has ImageSize,
			// so this machine matches as sparc at negotiation time).
			adB.MustSetExpr("Arch", `ifThenElse(isUndefined(TARGET.ImageSize), "x86", "sparc")`)
		}
		adB.MustSetExpr(AttrRequirements, "TARGET.ImageSize <= 320")
		poolB.AddMachine(siteB.AddNode(g.Engine, fmt.Sprintf("b%02d", i), float64(1+i%4), load), adB)
	}

	for p, site := range map[*Pool]string{poolA: "siteA", poolB: "siteB"} {
		_ = site
		mgr := fairshare.NewManager(fairshare.Config{
			Clock:    g.Engine.Clock(),
			HalfLife: time.Minute,
		})
		p.SetFairShare(mgr)
	}

	subs := parityWorkload(seed)
	pools := []*Pool{poolA, poolB}
	for step := 0; step < 300; step++ {
		for _, s := range subs {
			if s.tick != step {
				continue
			}
			var err error
			if s.ckptCPU > 0 {
				_, err = pools[s.pool].SubmitCheckpointed(s.ad, s.ckptCPU)
			} else {
				_, err = pools[s.pool].Submit(s.ad)
			}
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		g.Engine.RunFor(time.Second)
	}

	var out []parityOutcome
	for _, p := range pools {
		infos, err := p.Jobs()
		if err != nil {
			t.Fatalf("jobs: %v", err)
		}
		for _, in := range infos {
			out = append(out, parityOutcome{
				Pool:       in.Pool,
				ID:         in.ID,
				Status:     in.Status,
				Node:       in.Node,
				Start:      in.StartTime,
				Completion: in.CompletionTime,
			})
		}
	}
	return out
}

// TestNegotiationParity drives identical seeded multi-pool workloads
// through the reference and indexed negotiators and requires
// assignment-for-assignment identical outcomes.
func TestNegotiationParity(t *testing.T) {
	for _, seed := range []int64{7, 42, 216} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			ref := runParityScenario(t, seed, true)
			idx := runParityScenario(t, seed, false)
			if len(ref) != len(idx) {
				t.Fatalf("job count diverged: reference %d, indexed %d", len(ref), len(idx))
			}
			started := 0
			for i := range ref {
				if ref[i] != idx[i] {
					t.Errorf("job %s/%d diverged:\n  reference: %+v\n  indexed:   %+v",
						ref[i].Pool, ref[i].ID, ref[i], idx[i])
				}
				if ref[i].Node != "" {
					started++
				}
			}
			if started == 0 {
				t.Fatal("scenario never assigned a machine; parity test is vacuous")
			}
		})
	}
}

// TestPickMachineDeterminismOnRankTies submits a rank-tied job against
// machines registered in different orders; the winner must always be the
// lexicographically smallest machine name, independent of insertion order
// and of the indexed path's bucket iteration.
func TestPickMachineDeterminismOnRankTies(t *testing.T) {
	orders := [][]string{
		{"n1", "n2", "n3", "n4"},
		{"n4", "n3", "n2", "n1"},
		{"n3", "n1", "n4", "n2"},
	}
	for _, reference := range []bool{false, true} {
		for _, order := range orders {
			g := simgrid.NewGrid(time.Second, 1)
			site := g.AddSite("s")
			p := NewPool("p", g, site)
			if reference {
				p.useReferenceNegotiator()
			}
			for _, name := range order {
				// Identical ads: every machine matches with rank 0.
				p.AddMachine(site.AddNode(g.Engine, name, 1, simgrid.IdleLoad()), nil)
			}
			id, err := p.Submit(classad.New().Set(AttrCpuSeconds, 5.0))
			if err != nil {
				t.Fatal(err)
			}
			g.Engine.RunFor(time.Second)
			info, err := p.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			if info.Node != "n1" {
				t.Errorf("reference=%v order=%v: rank tie went to %q, want n1",
					reference, order, info.Node)
			}
		}
	}
}

// TestIndexedArchConstraint pins jobs to architectures via Requirements
// and checks each lands on the right machine: literal Arch buckets, and
// expression-valued Arch (self-contained or target-dependent), which
// only the always-scanned catch-all bucket can satisfy.
func TestIndexedArchConstraint(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("s")
	p := NewPool("p", g, site)
	p.AddMachine(site.AddNode(g.Engine, "x1", 1, simgrid.IdleLoad()),
		classad.New().Set("Arch", "x86"))
	p.AddMachine(site.AddNode(g.Engine, "s1", 1, simgrid.IdleLoad()),
		classad.New().Set("Arch", "sparc"))
	selfEval := classad.New()
	selfEval.MustSetExpr("Arch", `"mips64"`)
	p.AddMachine(site.AddNode(g.Engine, "e1", 1, simgrid.IdleLoad()), selfEval)
	dyn := classad.New()
	dyn.MustSetExpr("Arch", `TARGET.WantArch`)
	p.AddMachine(site.AddNode(g.Engine, "d1", 1, simgrid.IdleLoad()), dyn)
	// Both expression-valued machines must sit in the catch-all bucket:
	// only literal Arch values are target-independent index keys.
	if got := len(p.freeBuckets[dynamicBucket]); got != 2 {
		t.Fatalf("dynamic bucket holds %d machines, want 2", got)
	}

	submit := func(req string, extra map[string]any) int {
		ad := classad.New().Set(AttrCpuSeconds, 5.0)
		for k, v := range extra {
			ad.Set(k, v)
		}
		ad.MustSetExpr(AttrRequirements, req)
		id, err := p.Submit(ad)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	sparcJob := submit(`TARGET.Arch == "sparc"`, nil)
	exprJob := submit(`TARGET.Arch == "mips64"`, nil)
	dynJob := submit(`TARGET.Arch == "alpha"`, map[string]any{"WantArch": "alpha"})
	g.Engine.RunFor(time.Second)
	for id, want := range map[int]string{sparcJob: "s1", exprJob: "e1", dynJob: "d1"} {
		info, err := p.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Node != want {
			t.Errorf("job %d landed on %q, want %q", id, info.Node, want)
		}
	}
}

// TestCrossPoolRemoveNoDeadlock tears flocked jobs down between engine
// steps: Remove on a job running on a peer's machine queues the foreign
// release on the peer, which folds it back into its free set at its next
// wake, instead of reaching into the peer's state mid-call.
func TestCrossPoolRemoveNoDeadlock(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	siteA, siteB := g.AddSite("siteA"), g.AddSite("siteB")
	poolA, poolB := NewPool("poolA", g, siteA), NewPool("poolB", g, siteB)
	poolA.EnableFlocking(poolB)
	poolB.EnableFlocking(poolA)
	for i := 0; i < 4; i++ {
		// Only A has machines: every B job flocks onto A.
		poolA.AddMachine(siteA.AddNode(g.Engine, fmt.Sprintf("a%d", i), 1, simgrid.IdleLoad()), nil)
	}
	var ids []int
	for i := 0; i < 40; i++ {
		id, err := poolB.Submit(classad.New().Set(AttrCpuSeconds, 50.0))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		for i := 0; ; i++ {
			info, err := poolB.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			if info.Status == StatusRunning {
				if err := poolB.Remove(id); err != nil {
					t.Fatal(err)
				}
				break
			}
			if info.Status.Terminal() || i == 100 {
				t.Fatalf("job %d is %v after %d steps, want running", id, info.Status, i)
			}
			g.Engine.RunFor(time.Second)
		}
	}
	// Every machine must return to A's free set.
	g.Engine.RunFor(time.Second) // drain queued releases
	free := 0
	for _, b := range poolA.freeBuckets {
		free += len(b)
	}
	if free != 4 {
		t.Fatalf("poolA free machines after teardown = %d, want 4", free)
	}
}

// TestFreeSetReleasedOnCompletion asserts the incremental free set
// returns machines after completion, removal, and fault injection, so a
// long-running pool never leaks capacity.
func TestFreeSetReleasedOnCompletion(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("s")
	p := NewPool("p", g, site)
	for i := 0; i < 3; i++ {
		p.AddMachine(site.AddNode(g.Engine, fmt.Sprintf("n%d", i), 1, simgrid.IdleLoad()), nil)
	}
	freeCount := func() int {
		n := 0
		for _, b := range p.freeBuckets {
			n += len(b)
		}
		return n
	}
	if got := freeCount(); got != 3 {
		t.Fatalf("initial free machines = %d, want 3", got)
	}
	a, _ := p.Submit(classad.New().Set(AttrCpuSeconds, 2.0))
	b, _ := p.Submit(classad.New().Set(AttrCpuSeconds, 100.0))
	// The fault point is two ticks in: a task cut to one tick would end — and
	// hand its machine back — at the boundary the pool placed it at.
	c, _ := p.Submit(classad.New().Set(AttrCpuSeconds, 100.0).Set(AttrFailAfter, 2.0))
	g.Engine.RunFor(time.Second)
	if got := freeCount(); got != 0 {
		t.Fatalf("free machines while 3 jobs run = %d, want 0", got)
	}
	g.Engine.RunFor(5 * time.Second)
	// a completed, c fault-injected; b still runs.
	for id, want := range map[int]Status{a: StatusCompleted, c: StatusFailed} {
		info, err := p.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != want {
			t.Fatalf("job %d = %v, want %v", id, info.Status, want)
		}
	}
	if got := freeCount(); got != 2 {
		t.Errorf("free machines after completion+failure = %d, want 2", got)
	}
	if err := p.Remove(b); err != nil {
		t.Fatal(err)
	}
	if got := freeCount(); got != 3 {
		t.Errorf("free machines after removal = %d, want 3", got)
	}

	// A fault point one tick in. The machine comes back at the boundary the
	// job's CPU reaches the point, as after a completion — here the boundary
	// the pool placed it at, since a pool registered ahead of its nodes hands
	// a task the tick that ends at its placement — and the status follows
	// when the pool next harvests, one boundary on.
	d, _ := p.Submit(classad.New().Set(AttrCpuSeconds, 100.0).Set(AttrFailAfter, 1.0))
	g.Engine.RunFor(time.Second)
	if info, _ := p.Job(d); info.Status != StatusRunning || freeCount() != 3 {
		t.Errorf("at the fault boundary: job %v with %d machines free, want running and 3", info.Status, freeCount())
	}
	g.Engine.RunFor(time.Second)
	if info, _ := p.Job(d); info.Status != StatusFailed || info.CPUSeconds != 1 || freeCount() != 3 {
		t.Errorf("one boundary on: job %v at cpu %v with %d machines free, want failed at exactly 1 and 3", info.Status, info.CPUSeconds, freeCount())
	}
}
