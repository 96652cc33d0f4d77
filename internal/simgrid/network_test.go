package simgrid

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// Tests for the event-driven network flow model: equal-share contention,
// settle-and-re-derive on perturbations (start/finish/Connect replacing
// a link), probe semantics, zero-size edge cases, and tick-vs-event
// trace parity for network-heavy scenarios.

func netEpoch(g *Grid) time.Time { return time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC) }

// TestFlowContentionTwoConcurrent pins the acceptance criterion: two
// concurrent equal-size transfers on a shared link each take ~2x their
// solo duration, because each receives half the link.
func TestFlowContentionTwoConcurrent(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 10})
	var doneA, doneB time.Duration
	quoteA, err := g.Network.StartTransfer("a", "b", 100, func(e time.Duration) { doneA = e })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Network.StartTransfer("a", "b", 100, func(e time.Duration) { doneB = e }); err != nil {
		t.Fatal(err)
	}
	if quoteA != 10*time.Second {
		t.Fatalf("solo quote = %v, want 10s", quoteA)
	}
	g.Engine.RunFor(19 * time.Second)
	if doneA != 0 || doneB != 0 {
		t.Fatalf("contended transfers finished early: %v %v", doneA, doneB)
	}
	g.Engine.RunFor(2 * time.Second)
	// Each flow gets 5 MB/s: 100 MB drains in 20s — exactly 2x the quote.
	if doneA != 20*time.Second || doneB != 20*time.Second {
		t.Fatalf("contended completions = %v, %v; want 20s each (2x solo)", doneA, doneB)
	}
}

// TestFlowStaggeredContention: a flow joining mid-transfer settles the
// incumbent's progress and halves both rates; the incumbent finishing
// returns the freed share to the survivor. Classic processor sharing:
//
//	A: 100MB at t=0. B: 100MB at t=4.
//	[0,4):  A alone at 10 MB/s  → A has 60 left
//	[4,16): both at 5 MB/s      → A drains at 16, B has 40 left
//	[16,20): B alone at 10 MB/s → B drains at 20
func TestFlowStaggeredContention(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 10})
	epoch := netEpoch(g)
	var doneA, doneB time.Time
	if _, err := g.Network.StartTransfer("a", "b", 100, func(time.Duration) { doneA = g.Engine.Now() }); err != nil {
		t.Fatal(err)
	}
	g.Engine.Schedule(4*time.Second, func(time.Time) {
		if _, err := g.Network.StartTransfer("a", "b", 100, func(time.Duration) { doneB = g.Engine.Now() }); err != nil {
			t.Error(err)
		}
	})
	g.Engine.RunFor(30 * time.Second)
	if got := doneA.Sub(epoch); got != 16*time.Second {
		t.Fatalf("first flow completed at +%v, want +16s", got)
	}
	if got := doneB.Sub(epoch); got != 20*time.Second {
		t.Fatalf("second flow completed at +%v, want +20s", got)
	}
}

// TestUtilizationChangeMovesInFlightDeadline pins the acceptance
// criterion: a mid-flight change of background traffic to 0.5 (the link
// connected again with the new Utilization) moves an in-flight flow's
// completion to the analytically derived instant. 100MB at 10MB/s would
// finish at 10s; halving the link at 5s leaves 50MB at 5MB/s → completion
// at 15s.
func TestUtilizationChangeMovesInFlightDeadline(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 10})
	epoch := netEpoch(g)
	var doneAt time.Time
	f, _, err := g.Network.startFlow("a", "b", 100, func(time.Duration) { doneAt = g.Engine.Now() })
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Deadline().Sub(epoch); got != 10*time.Second {
		t.Fatalf("initial deadline = +%v, want +10s", got)
	}
	g.Engine.Schedule(5*time.Second, func(time.Time) {
		g.Network.Connect("a", "b", Link{BandwidthMBps: 10, Utilization: 0.5})
	})
	g.Engine.RunFor(12 * time.Second)
	if !doneAt.IsZero() {
		t.Fatalf("flow completed at +%v despite mid-flight slowdown", doneAt.Sub(epoch))
	}
	if got := f.Deadline().Sub(epoch); got != 15*time.Second {
		t.Fatalf("re-derived deadline = +%v, want +15s", got)
	}
	g.Engine.RunFor(4 * time.Second)
	if got := doneAt.Sub(epoch); got != 15*time.Second {
		t.Fatalf("completed at +%v, want the analytic +15s", got)
	}
	if !f.Finished() || f.Remaining() != 0 {
		t.Fatalf("flow handle not finished: remaining %v", f.Remaining())
	}
}

// TestConnectReplacementRederivesInFlight: replacing a link mid-flight is
// a perturbation like any other — progress settles under the old
// parameters and the deadline re-derives under the new ones.
func TestConnectReplacementRederivesInFlight(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 10})
	epoch := netEpoch(g)
	var doneAt time.Time
	if _, err := g.Network.StartTransfer("a", "b", 100, func(time.Duration) { doneAt = g.Engine.Now() }); err != nil {
		t.Fatal(err)
	}
	// At 5s the link is upgraded 10 → 50 MB/s: 50MB left drains in 1s.
	g.Engine.Schedule(5*time.Second, func(time.Time) {
		g.Network.Connect("a", "b", Link{BandwidthMBps: 50})
	})
	g.Engine.RunFor(10 * time.Second)
	if got := doneAt.Sub(epoch); got != 6*time.Second {
		t.Fatalf("completed at +%v, want +6s after mid-flight upgrade", got)
	}
}

// TestLinkUtilizationClamped pins the boundary semantics: utilization is
// clamped into [0, MaxUtilization] by Connect, whether it installs or
// replaces the link, so no setting can produce a link on which every
// transfer errors "saturated".
func TestLinkUtilizationClamped(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 1000, Utilization: 1.5})
	l, ok := g.Network.LinkBetween("a", "b")
	if !ok || l.Utilization != MaxUtilization {
		t.Fatalf("Connect stored utilization %v, want clamp to %v", l.Utilization, MaxUtilization)
	}
	g.Network.Connect("a", "b", Link{BandwidthMBps: 1000, Utilization: 1.0})
	l, _ = g.Network.LinkBetween("a", "b")
	if l.Utilization != MaxUtilization {
		t.Fatalf("replacing Connect stored utilization 1.0 as %v, want %v", l.Utilization, MaxUtilization)
	}
	g.Network.Connect("a", "b", Link{BandwidthMBps: 1000, Utilization: -3})
	l, _ = g.Network.LinkBetween("a", "b")
	if l.Utilization != 0 {
		t.Fatalf("negative utilization stored %v, want 0", l.Utilization)
	}
	// A maximally utilized link is slow, not broken: 1000 MB/s at
	// MaxUtilization leaves 1 MB/s, so 1 MB takes 1s.
	g.Network.Connect("a", "b", Link{BandwidthMBps: 1000, Utilization: 5})
	var done time.Duration
	if _, err := g.Network.StartTransfer("a", "b", 1, func(e time.Duration) { done = e }); err != nil {
		t.Fatalf("transfer on maximally utilized link failed: %v", err)
	}
	g.Engine.RunFor(2 * time.Second)
	if done != time.Second {
		t.Fatalf("transfer on maximally utilized link took %v, want 1s", done)
	}
}

// TestLatencyTailNotRecharged: a flow whose payload has fully drained is
// only riding out the link's one-way latency — a perturbation during
// that tail must neither postpone its frozen completion (the bytes are
// already sent) nor let it keep occupying link share. Regression test
// from review: the deadline used to be re-derived as settle+latency on
// every perturbation, so perturbations spaced closer than the latency
// could postpone a drained flow forever.
func TestLatencyTailNotRecharged(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 10, Latency: 3 * time.Second})
	epoch := netEpoch(g)
	var done1, done2 time.Time
	// 10MB at 10MB/s: payload drains at 1s, completion at 1+3 = 4s.
	if _, err := g.Network.StartTransfer("a", "b", 10, func(time.Duration) { done1 = g.Engine.Now() }); err != nil {
		t.Fatal(err)
	}
	// At 2s — inside the first flow's latency tail — a second flow joins.
	g.Engine.Schedule(2*time.Second, func(time.Time) {
		if _, err := g.Network.StartTransfer("a", "b", 50, func(time.Duration) { done2 = g.Engine.Now() }); err != nil {
			t.Error(err)
		}
		// The drained flow no longer occupies the link.
		if got := g.Network.ActiveFlows("a", "b"); got != 1 {
			t.Errorf("active flows during latency tail = %d, want 1", got)
		}
	})
	g.Engine.RunFor(20 * time.Second)
	if got := done1.Sub(epoch); got != 4*time.Second {
		t.Fatalf("drained flow completed at +%v, want the frozen +4s", got)
	}
	// The second flow gets the full link: 50MB at 10MB/s from 2s, +3s
	// latency → 10s. (At the old half-share it would land at 15s.)
	if got := done2.Sub(epoch); got != 10*time.Second {
		t.Fatalf("tail-joining flow completed at +%v, want +10s", got)
	}
}

// TestZeroSizeTransferFiresNextBoundary pins the same-instant semantics:
// a zero-payload transfer (and a zero-size local copy) completes at the
// NEXT tick boundary, never within the same pass — matching
// Engine.Schedule's documented behavior.
func TestZeroSizeTransferFiresNextBoundary(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 10})
	epoch := netEpoch(g)
	var crossAt, localAt time.Time
	if _, err := g.Network.StartTransfer("a", "b", 0, func(time.Duration) { crossAt = g.Engine.Now() }); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Network.StartTransfer("a", "a", 0, func(time.Duration) { localAt = g.Engine.Now() }); err != nil {
		t.Fatal(err)
	}
	g.Engine.RunFor(3 * time.Second)
	if got := crossAt.Sub(epoch); got != time.Second {
		t.Fatalf("zero-size cross-site completion at +%v, want next boundary (+1s)", got)
	}
	if got := localAt.Sub(epoch); got != time.Second {
		t.Fatalf("zero-size same-site completion at +%v, want next boundary (+1s)", got)
	}
}

// TestProbeObservesContention: the iperf probe shares the link with the
// flows already in flight, and reports latency separately from the
// steady-state share.
func TestProbeObservesContention(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 10})
	idle, err := g.Network.Probe("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idle.SteadyStateMBps-10) > 1e-9 {
		t.Fatalf("idle probe = %v, want 10", idle)
	}
	if _, err := g.Network.StartTransfer("a", "b", 1000, nil); err != nil {
		t.Fatal(err)
	}
	busy, err := g.Network.Probe("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	// One incumbent flow + the probe itself: each would get half the link.
	if math.Abs(busy.SteadyStateMBps-5) > 1e-9 {
		t.Fatalf("contended steady-state = %v, want 5", busy.SteadyStateMBps)
	}
	if g.Network.ActiveFlows("a", "b") != 1 {
		t.Fatalf("active flows = %d, want 1", g.Network.ActiveFlows("a", "b"))
	}
	// Latency is reported separately and excluded from the steady rate.
	g.Network.Connect("a", "c", Link{BandwidthMBps: 12.5, Latency: 2 * time.Second})
	p, err := g.Network.Probe("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.SteadyStateMBps-12.5) > 1e-9 || p.Latency != 2*time.Second {
		t.Fatalf("probe = %+v, want steady 12.5 / latency 2s", p)
	}
}

// TestFlowHandleObservability: flow reads are pure — Remaining reflects
// elapsed time without settling (so observation can never perturb the
// float trajectory and break driver parity).
func TestFlowHandleObservability(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 10})
	f, quote, err := g.Network.startFlow("a", "b", 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if quote != 10*time.Second {
		t.Fatalf("quote = %v, want 10s", quote)
	}
	if got := f.Remaining(); got != 100 {
		t.Fatalf("initial remaining = %v", got)
	}
	g.Engine.RunFor(4 * time.Second)
	if got := f.Remaining(); math.Abs(got-60) > 1e-9 {
		t.Fatalf("remaining after 4s = %v, want 60", got)
	}
	if f.Finished() {
		t.Fatal("flow finished early")
	}
	g.Engine.RunFor(7 * time.Second)
	if !f.Finished() || f.Remaining() != 0 {
		t.Fatalf("flow not finished: remaining %v", f.Remaining())
	}
	// Same-site copies are no flow: there is no link to contend on.
	nf, _, err := g.Network.startFlow("a", "a", 10, nil)
	if err != nil || nf != nil {
		t.Fatalf("same-site startFlow = %v, %v; want no flow", nf, err)
	}
}

// runNetworkScenario drives a network-heavy script — concurrent staging
// on a shared link, cross-traffic on a second link, mid-flight
// utilization changes in both directions, and a late joiner — and
// returns its completion trace.
func runNetworkScenario(t *testing.T, runFor func(*Engine, time.Duration)) (trace []string, ticks, events int64) {
	t.Helper()
	g := NewGrid(time.Second, 1)
	for _, s := range []string{"a", "b", "c"} {
		g.AddSite(s)
	}
	ab := Link{BandwidthMBps: 10, Latency: 250 * time.Millisecond}
	g.Network.Connect("a", "b", ab)
	g.Network.Connect("a", "c", Link{BandwidthMBps: 4})
	epoch := netEpoch(g)
	record := func(name string) func(time.Duration) {
		return func(elapsed time.Duration) {
			trace = append(trace, fmt.Sprintf("%s done at +%v after %v", name, g.Engine.Now().Sub(epoch), elapsed))
		}
	}
	start := func(name, from, to string, size float64) {
		if _, err := g.Network.StartTransfer(from, to, size, record(name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	start("T1", "a", "b", 100)
	start("T2", "a", "b", 100)
	g.Engine.Schedule(7*time.Second, func(time.Time) {
		start("T3", "b", "a", 60)
		start("T4", "a", "c", 30)
	})
	busy := ab
	busy.Utilization = 0.35
	g.Engine.Schedule(13*time.Second, func(time.Time) { g.Network.Connect("a", "b", busy) })
	g.Engine.Schedule(20*time.Second, func(time.Time) { start("T5", "a", "b", 50) })
	g.Engine.Schedule(31*time.Second, func(time.Time) { g.Network.Connect("a", "b", ab) })
	runFor(g.Engine, 300*time.Second)
	return trace, g.Engine.Ticks(), g.Engine.Events()
}

// TestNetworkTraceParityTickVsEvent pins the acceptance criterion:
// stepping through every boundary and jumping from event to event produce
// byte-identical traces for the network scenarios, while the jumps visit
// far fewer boundaries.
func TestNetworkTraceParityTickVsEvent(t *testing.T) {
	tickTrace, tickTicks, tickEvents := runNetworkScenario(t, stepFor)
	evTrace, evTicks, evEvents := runNetworkScenario(t, (*Engine).RunFor)
	if len(tickTrace) != 5 {
		t.Fatalf("scenario produced %d completions, want 5:\n%s", len(tickTrace), strings.Join(tickTrace, "\n"))
	}
	if a, b := strings.Join(tickTrace, "\n"), strings.Join(evTrace, "\n"); a != b {
		t.Fatalf("traces diverged:\n-- tick --\n%s\n-- event --\n%s", a, b)
	}
	if tickEvents != evEvents {
		t.Fatalf("event counts diverged: tick %d vs event %d", tickEvents, evEvents)
	}
	if evTicks >= tickTicks {
		t.Fatalf("RunFor visited %d boundaries, the Step loop %d — no sparsity win", evTicks, tickTicks)
	}
}
