package condor

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
	"repro/internal/telemetry"
)

// The usage flow is the one way running CPU reaches a fair-share policy. A
// flow's life is a chain of constant-rate intervals, each of which meets
// the next and which together tile the intervals its task ran in: opened
// at the rate the node gives the task, re-rated where that rate changes —
// the end of a load segment, a change of the running tasks on the node,
// suspend and resume — and closed with the CPU the task measured.

var flowEpoch = time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)

// span is a half-open interval of simulated time.
type span struct{ from, to time.Time }

// rateSpans turns owner's flow log into its constant-rate intervals — rates
// and spans run in parallel — and returns the total the flow closed with.
// It fails the test unless the log is one open, any number of re-rates at
// strictly later instants, and one close: intervals that meet by
// construction, with no gap and no overlap to check for.
func rateSpans(t *testing.T, ops []flowOp, owner string) (rates []float64, spans []span, total float64) {
	t.Helper()
	var mine []flowOp
	for _, op := range ops {
		if op.owner == owner {
			mine = append(mine, op)
		}
	}
	if len(mine) < 2 || mine[0].op != "open" || mine[len(mine)-1].op != "close" {
		t.Fatalf("%s: flow log %+v is not open … close", owner, mine)
	}
	for i, op := range mine[:len(mine)-1] {
		if i > 0 && (op.op != "rate" || !op.at.After(mine[i-1].at)) {
			t.Fatalf("%s: op %d of flow log %+v is not a re-rate at a later instant", owner, i, mine)
		}
		rates = append(rates, op.v)
		spans = append(spans, span{op.at, mine[i+1].at})
	}
	return rates, spans, mine[len(mine)-1].v
}

// runningSpans returns the intervals job id spent running, from the pool's
// transitions.
func runningSpans(events []Event, id int) (out []span) {
	for _, e := range events {
		if e.JobID != id {
			continue
		}
		if e.To == StatusRunning {
			out = append(out, span{from: e.At})
		} else if e.From == StatusRunning {
			out[len(out)-1].to = e.At
		}
	}
	return out
}

// TestFlowFollowsLoadSegments: one job under a load that steps 0 → 0.5 →
// 0.2, suspended and resumed once on the way. The flow opens at the first
// segment's rate, is re-rated at each boundary and around the pause, and
// closes with the job's CPU; the intervals it accrued in are exactly the
// ones the job ran in; what it integrated is within the last tick's worth
// of the total; and the pool woke for that and nothing else.
func TestFlowFollowsLoadSegments(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("siteA")
	p := NewPool("poolA", g, site)
	b1, b2 := 1000*time.Second, 3000*time.Second
	load := simgrid.StepLoad(flowEpoch, []time.Duration{b1, b2}, []float64{0, 0.5, 0.2})
	p.AddMachine(site.AddNode(g.Engine, "a-node", 1, load), nil)
	pol := newRateLog(p)
	p.SetFairShare(pol)
	reg := telemetry.NewRegistry()
	p.SetTelemetry(reg)
	var events []Event
	p.Subscribe(func(e Event) { events = append(events, e) })

	const need = 2500
	id := mustSubmit(t, p, jobAd("alice", need, 0))
	g.Engine.RunFor(1500 * time.Second)
	if err := p.Suspend(id); err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(200 * time.Second)
	if err := p.Resume(id); err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(100_000*time.Second - 1700*time.Second)
	info := mustJob(t, p, id)
	if info.Status != StatusCompleted {
		t.Fatalf("job is %v at the horizon", info.Status)
	}

	at := func(d time.Duration) time.Time { return flowEpoch.Add(d) }
	rates, spans, total := rateSpans(t, pol.ops, "alice")
	wantRates := []float64{1, 0.5, 0, 0.5, 0.8}
	wantSpans := []span{
		{info.StartTime, at(b1)}, {at(b1), at(1500 * time.Second)},
		{at(1500 * time.Second), at(1700 * time.Second)},
		{at(1700 * time.Second), at(b2)}, {at(b2), info.CompletionTime},
	}
	if !slices.Equal(rates, wantRates) || !slices.Equal(spans, wantSpans) {
		t.Fatalf("flow ran at\n %v over %v\nwant\n %v over %v", rates, spans, wantRates, wantSpans)
	}
	if total != need {
		t.Errorf("flow closed with %v, want the job's %v CPU-seconds", total, float64(need))
	}

	// The intervals with a rate tile the intervals the job ran in.
	var accruing []span
	integral := 0.0
	for i, s := range spans {
		integral += rates[i] * s.to.Sub(s.from).Seconds()
		if rates[i] == 0 {
			continue
		}
		if n := len(accruing); n > 0 && accruing[n-1].to.Equal(s.from) {
			accruing[n-1].to = s.to
		} else {
			accruing = append(accruing, s)
		}
	}
	if ran := runningSpans(events, id); !slices.Equal(accruing, ran) {
		t.Errorf("flow accrued over %v, job ran over %v", accruing, ran)
	}
	if worth := rates[len(rates)-1] * g.Engine.Tick().Seconds(); math.Abs(integral-total) > worth {
		t.Errorf("flow integrated %v against a measured %v: more than a tick's worth (%v) apart", integral, total, worth)
	}
	if u := pol.Usage("alice"); math.Abs(u-need) > 1e-9*need {
		t.Errorf("usage %v after the close, want %v", u, float64(need))
	}

	// The first negotiation, the two boundaries and the harvest: suspend and
	// resume ask the node on the spot and wake nobody.
	snap := reg.Snapshot()
	if wakes := snap.Total("pool_wakes_total"); wakes > 2+3 {
		t.Errorf("%v pool wakes over 100 000 ticks for 2 load boundaries, want at most 5", wakes)
	}
	if idle := snap.Total("pool_idle_wakes_total"); idle != 0 {
		t.Errorf("%v wakes found nothing to do", idle)
	}
}

// TestFlowFollowsOccupancy: the node shares its free capacity among the
// tasks running on it, so a foreign task placed beside the job halves the
// flow's rate at the boundary the pool hears of it and its removal restores
// it — while a foreign task that is placed suspended takes nothing and
// changes nothing.
func TestFlowFollowsOccupancy(t *testing.T) {
	g, p := testPool(t, 1)
	pol := newRateLog(p)
	p.SetFairShare(pol)
	node := p.machines[0].node
	id := mustSubmit(t, p, jobAd("alice", 1000, 0))
	g.Engine.RunFor(10 * time.Second)

	paused := simgrid.NewTask(500, nil)
	paused.Suspend()
	node.Place(paused)
	g.Engine.RunFor(10 * time.Second)
	if len(pol.calls) != 0 {
		t.Fatalf("a suspended foreign task re-rated the flow: %v", pol.calls)
	}

	ext := simgrid.NewTask(500, nil)
	node.Place(ext)
	g.Engine.RunFor(10 * time.Second)
	node.Remove(ext)
	g.Engine.RunFor(10 * time.Second)
	node.Remove(paused)
	g.Engine.RunFor(2000 * time.Second)
	if want := []string{"alice=0.5", "alice=1"}; !slices.Equal(pol.calls, want) {
		t.Fatalf("flow re-rated %v, want %v", pol.calls, want)
	}
	var at []time.Duration
	for _, op := range pol.ops {
		if op.op == "rate" {
			at = append(at, op.at.Sub(flowEpoch))
		}
	}
	// Each change is made between two boundaries and heard of at the next.
	if want := []time.Duration{21 * time.Second, 31 * time.Second}; !slices.Equal(at, want) {
		t.Errorf("flow re-rated at %v, want %v", at, want)
	}
	if got := mustJob(t, p, id).Status; got != StatusCompleted {
		t.Fatalf("job is %v at the horizon", got)
	}
	if u := pol.Usage("alice"); math.Abs(u-1000) > 1e-6 {
		t.Errorf("usage %v after the close, want 1000", u)
	}
}

// TestResumeRatesFlowFromNode: a job resumed after its node's load
// stepped gets its flow back at what the node gives it now — asked of the
// node at the Resume, which runs on an API goroutine between two wakes of
// the pool — not at the rate it had when it was suspended. The step falls
// while the job is suspended, so the pool's wake there finds a flow at
// rate 0 and leaves it.
func TestResumeRatesFlowFromNode(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("siteA")
	p := NewPool("poolA", g, site)
	load := simgrid.StepLoad(flowEpoch, []time.Duration{7 * time.Second}, []float64{0, 0.5})
	p.AddMachine(site.AddNode(g.Engine, "a-node", 1, load), nil)
	pol := newRateLog(p)
	p.SetFairShare(pol)
	id := mustSubmit(t, p, jobAd("alice", 100, 0))
	g.Engine.RunFor(5 * time.Second)
	if err := p.Suspend(id); err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(3 * time.Second)
	if err := p.Resume(id); err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(3 * time.Second)
	if want := []string{"alice=0", "alice=0.5"}; !slices.Equal(pol.calls, want) {
		t.Fatalf("suspend, load 0 → 0.5, resume set the flow's rate to %v, want %v", pol.calls, want)
	}
}

// TestFlowRerateOrderIsDeterministic: 200 jobs on nodes of different speeds
// under one diurnal load, so that every minute all 200 flows are re-rated
// at one instant and every account's rate moves by dozens of float
// additions. The books must come out bit for bit the same on every run,
// which they only do if the flows are visited in an order the run does not
// choose.
func TestFlowRerateOrderIsDeterministic(t *testing.T) {
	const jobs, runs = 200, 20
	tenants := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6"}
	groups := []string{"g0", "g1", "g2"}
	run := func() []uint64 {
		g := simgrid.NewGrid(time.Second, 1)
		site := g.AddSite("siteA")
		p := NewPool("poolA", g, site)
		load := simgrid.DiurnalLoad(0.4, 0.3, 14)
		for i := 0; i < jobs; i++ {
			p.AddMachine(site.AddNode(g.Engine, fmt.Sprintf("n%03d", i), 1+float64(i%13)/7, load), nil)
		}
		fs := fairshare.NewManager(fairshare.Config{Clock: g.Engine.Clock(), HalfLife: time.Hour})
		for i, tn := range tenants {
			fs.SetTenant(tn, groups[i%len(groups)], 1+float64(i%3))
		}
		p.SetFairShare(fs)
		for i := 0; i < jobs; i++ {
			mustSubmit(t, p, jobAd(tenants[i%len(tenants)], 3000+float64(i), 0))
		}
		g.Engine.RunFor(2 * time.Hour)
		var bits []uint64
		for _, tn := range tenants {
			bits = append(bits, math.Float64bits(fs.Usage(tn)), math.Float64bits(fs.SiteUsage(tn, "siteA")))
		}
		for _, gr := range groups {
			bits = append(bits, math.Float64bits(fs.GroupUsage(gr)))
		}
		return bits
	}
	first := run()
	if first[0] == 0 {
		t.Fatal("no usage accrued; the test is vacuous")
	}
	for i := 1; i < runs; i++ {
		if got := run(); !slices.Equal(got, first) {
			t.Fatalf("run %d: usage bits %x, first run %x", i, got, first)
		}
	}
}

// TestFlowsMatchPerTickEagerOracle runs the piecewise-load scenario — step
// and diurnal machines, and again with the noisy one — once, with
// two sets of books kept on it: the installed policy's, fed by usage flows,
// and a second manager's, fed by the per-tick eager accrual flows replaced
// (eagerAccrual, which reads every running task's CPU at every tick). After
// every boundary, and at the end, each tenant's usage and effective
// priority agree.
//
// With decay off the two differ only by float association — 1e-9 — plus
// what separates the float rate a flow runs at from the whole work units
// per second the node quantises it to: at most half a micro-CPU-second per
// second a flow has been open (Close applies the residual). That term is
// zero on the step machines, whose rates are whole units. With decay on,
// an impulse at the end of a tick has decayed for up to a tick less than
// the inflow it stands for, and a flow runs on to the end of its task's
// last tick before Close takes the excess back: 2·λ·tick, 2.3e-2 at a
// one-minute half-life and a one-second tick (and
// TestFlowLazyMatchesEagerAccrual's 1e-3 at its 50 ms).
func TestFlowsMatchPerTickEagerOracle(t *testing.T) {
	for _, leg := range []struct {
		name     string
		noisy    bool
		halfLife time.Duration
		tol      float64
	}{
		{"piecewise", false, -1, 1e-9},
		{"noisy", true, -1, 1e-9},
		{"piecewise, decaying", false, time.Minute, 2 * math.Ln2 / 60},
		{"noisy, decaying", true, time.Minute, 2 * math.Ln2 / 60},
	} {
		t.Run(leg.name, func(t *testing.T) {
			var oracle *eagerAccrual
			var eager *fairshare.Manager
			sc := buildPiecewiseScenario(t, leg.noisy, leg.halfLife, func(e *simgrid.Engine) {
				eager = fairshare.NewManager(fairshare.Config{Clock: e.Clock(), HalfLife: leg.halfLife})
				oracle = newEagerAccrual(e, eager)
			})
			oracle.pool = sc.pool
			worst := 0.0
			for k := 0; k < 3*3600; k++ {
				sc.g.Engine.RunFor(time.Second)
				// What rate quantisation can be holding back: half a work
				// unit per second each open flow has run. (The nano is for the
				// idle tail under decay, where both books fall towards zero
				// and what is left of an account's rate after its flows were
				// added and taken away, an ulp of it, shows.)
				slack := 1e-9
				for _, m := range sc.pool.machines {
					if j := m.flowJob(sc.pool); j != nil {
						slack += 0.5e-6 * sc.g.Engine.Now().Sub(sc.pool.timeOf(j.started)).Seconds()
					}
				}
				for _, tenant := range []string{"alice", "bob", "carol"} {
					lazyU, eagerU := sc.mgr.Usage(tenant), eager.Usage(tenant)
					if d := math.Abs(lazyU - eagerU); d > leg.tol*math.Max(lazyU, eagerU)+slack {
						t.Fatalf("%s at tick %d: usage %v by flows, %v by per-tick accrual", tenant, k, lazyU, eagerU)
					} else if eagerU > 0 {
						worst = math.Max(worst, d/eagerU)
					}
					lazyP, eagerP := sc.mgr.EffectivePriority(tenant), eager.EffectivePriority(tenant)
					// A priority is a product of two factors x/(x+usage), the
					// tenant's and its group's: each moves relatively no more
					// than the usage in it does.
					if tol := 2 * (leg.tol + slack/math.Max(eagerU, math.SmallestNonzeroFloat64)); math.Abs(lazyP-eagerP) > tol*math.Max(lazyP, eagerP) {
						t.Fatalf("%s at tick %d: effective priority %v by flows, %v by per-tick accrual", tenant, k, lazyP, eagerP)
					}
				}
			}
			t.Logf("largest relative difference in usage at any boundary: %.3g", worst)
			completed := 0
			for _, j := range mustJobs(t, sc.pool) {
				if j.Status == StatusCompleted {
					completed++
				}
			}
			if completed == 0 {
				t.Fatal("no job completed; the scenario is vacuous")
			}
		})
	}
}

// TestWeatherIsEventDriven pins what a grid with weather costs the engine:
// two nodes under a diurnal load (a segment a minute), two 30 000
// CPU-second jobs, six hours at a one-second tick. Without a fair-share
// policy that is a handful of boundaries — the nodes' look-ahead. With one
// it is those plus one wake of the pool per minute, where the two flows are
// re-rated: 21 600 of 21 600 boundaries before usage flows followed load
// segments, when any node not constant for ever was read every tick.
func TestWeatherIsEventDriven(t *testing.T) {
	run := func(policy bool) (boundaries int64, wakes float64) {
		g := simgrid.NewGrid(time.Second, 1)
		site := g.AddSite("siteA")
		p := NewPool("poolA", g, site)
		for i := 0; i < 2; i++ {
			p.AddMachine(site.AddNode(g.Engine, nodeName(i), 1, simgrid.DiurnalLoad(0.3, 0.2, 14)), nil)
		}
		reg := telemetry.NewRegistry()
		p.SetTelemetry(reg)
		if policy {
			p.SetFairShare(fairshare.NewManager(fairshare.Config{Clock: g.Engine.Clock(), HalfLife: time.Hour}))
		}
		for _, owner := range []string{"alice", "bob"} {
			mustSubmit(t, p, classad.New().Set(AttrOwner, owner).Set(AttrCpuSeconds, 30000.0))
		}
		g.Engine.RunFor(6 * time.Hour)
		for _, j := range mustJobs(t, p) {
			if j.Status != StatusRunning || j.CPUSeconds < 10000 {
				t.Fatalf("job %d is %v with %v CPU-seconds after six hours", j.ID, j.Status, j.CPUSeconds)
			}
		}
		t.Logf("policy %v: %d boundaries visited, %d events, %v pool wakes", policy, g.Engine.Ticks(), g.Engine.Events(), reg.Snapshot().Total("pool_wakes_total"))
		return g.Engine.Ticks(), reg.Snapshot().Total("pool_wakes_total")
	}
	bare, bareWakes := run(false)
	fair, fairWakes := run(true)
	if fair > 400 {
		t.Errorf("%d boundaries visited with a fair-share policy, want at most 400", fair)
	}
	// One re-rate wake at the end of each of the 360 one-minute segments.
	if rerates := fairWakes - bareWakes; rerates != 360 {
		t.Errorf("%v wakes of the pool beyond the %v it takes without a policy, want one per minute: 360", rerates, bareWakes)
	}
	if extra := fair - bare; extra < 0 || extra > 360 {
		t.Errorf("%d boundaries with the policy, %d without: the difference is not the re-rate wakes", fair, bare)
	}
}
