package simgrid

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Link describes the connectivity between two sites.
type Link struct {
	BandwidthMBps float64       // sustained payload bandwidth, MB/s
	Latency       time.Duration // one-way latency
	// Utilization in [0, MaxUtilization] models background traffic eating
	// into the available bandwidth; the effective rate is
	// Bandwidth×(1−Utilization). Connect clamps into that range, so
	// background traffic can squeeze a link down to a sliver but never
	// produce a permanently unusable ("saturated") one.
	Utilization float64
}

// MaxUtilization is the ceiling background utilization is clamped to at
// Connect: a link always retains at least 0.1% of its
// bandwidth for grid transfers. Values at or above 1 used to create links
// on which every transfer failed "saturated"; clamping makes the boundary
// a slow link instead of a broken one.
const MaxUtilization = 0.999

func clampUtil(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > MaxUtilization {
		return MaxUtilization
	}
	return u
}

// EffectiveMBps returns the bandwidth left after background utilization —
// what a solo transfer on the link would sustain.
func (l Link) EffectiveMBps() float64 {
	return l.BandwidthMBps * (1 - clampUtil(l.Utilization))
}

// flow is one in-flight transfer on a link. Each flow tracks its
// remaining payload and its current rate (the link's effective
// bandwidth split equally among concurrent flows), and its completion is
// an analytically derived deadline event on the engine queue. On any
// perturbation — a flow starting or finishing on the link, the link
// replaced (a change of background traffic among them) — every flow on
// the link is settled (progress accrued at the old rate through the
// present) and its rate and deadline re-derived, the same
// settle-and-re-derive pattern Node uses for CPU shares.
type flow struct {
	seq        int64
	started    time.Time
	lastSettle time.Time
	remaining  float64 // MB of payload left at lastSettle
	rate       float64 // current per-flow share, MB/s; 0 once drained
	// drainedAt is the instant the payload finished draining (found at
	// the first settle past it); zero while payload remains. A drained
	// flow no longer occupies link share, and its deadline — drain
	// instant plus one-way latency — is frozen: later perturbations on
	// the link cannot postpone a transfer whose bytes are already sent.
	drainedAt time.Time
	deadline  time.Time // analytic completion instant under the current rate
	done      func(elapsed time.Duration)
}

// Network is the grid's site-to-site fabric. Links are symmetric; a
// transfer between unlinked sites fails, and intra-site copies complete in
// one tick at local-disk speed.
//
// Transfers are modeled as flows under processor-sharing: N concurrent
// undrained flows on a link each receive 1/N of its effective bandwidth,
// and every rate change settles progress and re-derives each affected
// flow's completion-deadline event. A flow whose payload has drained
// stops occupying the link (its remaining latency tail moves no bytes)
// and its completion freezes at drain + latency; drains are discovered
// at the next perturbation or completion event on the link, so between
// events the survivors ride at their last derived rate — the quantized
// compromise that keeps both engine drivers on identical traces.
type Network struct {
	engine *Engine
	wake   Wake

	links   map[[2]string]Link
	flows   map[[2]string][]*flow
	linkMin map[[2]string]time.Time // earliest flow deadline per link
	seq     int64
}

// LocalCopyMBps approximates same-site staging speed (local disk/LAN).
const LocalCopyMBps = 400.0

// maxFlowSeconds caps a single analytic deadline horizon (~31 years of
// simulated time) so that near-zero rates cannot overflow the duration
// arithmetic; the wake at the cap boundary simply re-derives.
const maxFlowSeconds = 1e9

// NewNetwork creates an empty fabric bound to the engine. The network
// registers one engine component whose wake carries every flow's
// completion deadline.
func NewNetwork(e *Engine) *Network {
	n := &Network{
		engine:  e,
		links:   make(map[[2]string]Link),
		flows:   make(map[[2]string][]*flow),
		linkMin: make(map[[2]string]time.Time),
	}
	e.register(&n.wake, n)
	return n
}

func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Connect installs (or replaces) the symmetric link between sites a and b.
// It panics on a bandwidth that is not positive or a NaN utilization;
// utilization is clamped into [0, MaxUtilization]. Replacing a link that
// carries active flows settles them under the old parameters and
// re-derives their rates and deadlines under the new ones: this is how
// background traffic changes mid-flight.
func (n *Network) Connect(a, b string, link Link) {
	if a == b {
		panic("simgrid: cannot link a site to itself")
	}
	if !(link.BandwidthMBps > 0) {
		panic("simgrid: link needs positive bandwidth")
	}
	if math.IsNaN(link.Utilization) {
		panic("simgrid: link utilization is NaN")
	}
	link.Utilization = clampUtil(link.Utilization)
	now := n.engine.Now()
	k := linkKey(a, b)
	n.settleLink(k, now)
	n.links[k] = link
	n.rederiveLink(k)
	n.requestWake()
}

// LinkBetween returns the link between two sites.
func (n *Network) LinkBetween(a, b string) (Link, bool) {
	l, ok := n.links[linkKey(a, b)]
	return l, ok
}

// TransferDuration quotes how long moving sizeMB from site a to site b
// would take as a solo flow under current background utilization —
// concurrent flows are not counted. It is a quote, not a promise: actual
// completion is governed by the flow model and responds to contention and
// utilization changes mid-flight. Same-site transfers use local-copy
// speed.
func (n *Network) TransferDuration(a, b string, sizeMB float64) (time.Duration, error) {
	if sizeMB < 0 {
		return 0, fmt.Errorf("simgrid: negative transfer size %v", sizeMB)
	}
	if a == b {
		return secs(sizeMB / LocalCopyMBps), nil
	}
	l, ok := n.LinkBetween(a, b)
	if !ok {
		return 0, fmt.Errorf("simgrid: no link %s—%s", a, b)
	}
	// Connect enforces positive bandwidth and clamps utilization below 1,
	// so the effective rate is always positive.
	return l.Latency + secs(sizeMB/l.EffectiveMBps()), nil
}

// StartTransfer begins an asynchronous transfer and invokes done (with
// the actually elapsed duration) when it completes in simulated time. The
// returned duration is the solo-flow quote at start time; under
// contention or utilization changes the actual transfer takes longer (or
// shorter) and done observes the difference. A cross-site transfer is a
// flow on the link; a same-site copy contends with nothing and stays a
// plain engine timer.
func (n *Network) StartTransfer(a, b string, sizeMB float64, done func(elapsed time.Duration)) (time.Duration, error) {
	quote, err := n.TransferDuration(a, b, sizeMB)
	if err != nil {
		return 0, err
	}
	if a == b {
		if done != nil {
			n.engine.Schedule(quote, func(time.Time) { done(quote) })
		}
		return quote, nil
	}
	now := n.engine.Now()
	k := linkKey(a, b)
	n.settleLink(k, now)
	n.seq++
	f := &flow{seq: n.seq, started: now, lastSettle: now, remaining: sizeMB, done: done}
	if sizeMB == 0 {
		// Nothing to drain: the flow is all latency tail from the start
		// and never occupies link share.
		l := n.links[k]
		f.drainedAt = now
		f.deadline = now.Add(l.Latency)
	}
	n.flows[k] = append(n.flows[k], f)
	n.rederiveLink(k)
	n.requestWake()
	return quote, nil
}

// settleLink accrues every undrained flow on link k through t at
// its current rate. A flow whose payload finishes draining inside the
// settled interval is marked drained at the exact drain instant: its
// deadline freezes at drain + latency and its share is released (the
// next rederive excludes it from the divisor). Rates are
// piecewise-constant between perturbations, so settling exactly at
// perturbation and deadline instants loses nothing; settles at other
// instants are avoided (reads are pure) so both engine drivers perform
// the identical float arithmetic.
func (n *Network) settleLink(k [2]string, t time.Time) {
	l := n.links[k]
	for _, f := range n.flows[k] {
		if !f.drainedAt.IsZero() {
			continue
		}
		dt := t.Sub(f.lastSettle)
		if dt <= 0 {
			continue
		}
		sec := dt.Seconds()
		if f.rate > 0 && f.remaining <= f.rate*sec {
			f.drainedAt = f.lastSettle.Add(secs(f.remaining / f.rate))
			f.deadline = f.drainedAt.Add(l.Latency)
			f.remaining = 0
			f.rate = 0
		} else {
			f.remaining -= f.rate * sec
		}
		f.lastSettle = t
	}
}

// rederiveLink recomputes the equal-share rate for link k's
// undrained flows and each one's analytic completion deadline — the
// instant its remaining payload drains at the new rate, plus the link's
// one-way latency — then refreshes the link's cached earliest deadline.
// Drained flows keep their frozen deadlines and take no share.
func (n *Network) rederiveLink(k [2]string) {
	fs := n.flows[k]
	if len(fs) == 0 {
		delete(n.flows, k)
		delete(n.linkMin, k)
		return
	}
	l := n.links[k]
	active := 0
	for _, f := range fs {
		if f.drainedAt.IsZero() {
			active++
		}
	}
	var rate float64
	if active > 0 {
		rate = l.EffectiveMBps() / float64(active)
	}
	var min time.Time
	for _, f := range fs {
		if f.drainedAt.IsZero() {
			f.rate = rate
			drain := maxFlowSeconds
			if rate > 0 {
				if s := f.remaining / rate; s < drain {
					drain = s
				}
			}
			f.deadline = f.lastSettle.Add(secs(drain) + l.Latency)
		}
		if min.IsZero() || f.deadline.Before(min) {
			min = f.deadline
		}
	}
	n.linkMin[k] = min
}

// requestWake points the network's wake at the earliest pending
// deadline across all links. Requests coalesce earliest-first in the
// engine, so a deadline that moved later leaves a stale earlier request
// behind; the wake fires there, finds nothing due, and simply
// re-requests — exactly how Node handles deadlines that move.
func (n *Network) requestWake() {
	var min time.Time
	for _, m := range n.linkMin {
		if min.IsZero() || m.Before(min) {
			min = m
		}
	}
	if !min.IsZero() {
		n.wake.Request(min)
	}
}

// onWake is the network's engine event: visit every link whose earliest
// deadline has arrived, settle it, retire the flows whose drained
// payload has ridden out its latency tail, re-derive the survivors'
// rates and deadlines (a completion is a perturbation — the freed share
// speeds the rest up), and re-arm the wake. A flow whose deadline was
// capped (near-zero rate) settles and re-derives without completing.
// Done callbacks fire after all link state is consistent, in flow-start
// order.
func (n *Network) onWake(now time.Time) {
	var completed []*flow
	for k, m := range n.linkMin {
		if m.After(now) {
			continue
		}
		// One perturbation per link even when several flows finish at the
		// same boundary: settle everyone, drop the finished, re-derive.
		n.settleLink(k, now)
		fs := n.flows[k]
		keep := fs[:0]
		for _, f := range fs {
			if !f.drainedAt.IsZero() && !f.deadline.After(now) {
				completed = append(completed, f)
			} else {
				keep = append(keep, f)
			}
		}
		n.flows[k] = keep
		n.rederiveLink(k)
	}
	n.requestWake()
	sort.Slice(completed, func(i, j int) bool { return completed[i].seq < completed[j].seq })
	for _, f := range completed {
		if f.done != nil {
			f.done(now.Sub(f.started))
		}
	}
}

// BandwidthProbe is the result of an iperf-style measurement between two
// sites against the simulated fabric.
type BandwidthProbe struct {
	// SteadyStateMBps is the payload rate a new flow would receive right
	// now: the link's effective bandwidth shared with the flows already in
	// flight (the probe counts itself). Latency excluded.
	SteadyStateMBps float64
	// Latency is the link's one-way latency, reported separately so
	// estimators can charge it once instead of amortizing it into the
	// bandwidth.
	Latency time.Duration
}

// Probe performs an iperf-style bandwidth measurement between two sites.
// The paper's file-transfer-time estimator "first determine[s] the
// bandwidth between the client and the Clarens server using iperf" — this
// is that measurement. The probe observes current contention: concurrent
// flows on the link shrink the share it reports, exactly as a real iperf
// run through a busy pipe would.
func (n *Network) Probe(a, b string) (BandwidthProbe, error) {
	if a == b {
		return BandwidthProbe{SteadyStateMBps: LocalCopyMBps}, nil
	}
	k := linkKey(a, b)
	l, ok := n.links[k]
	active := 0
	for _, f := range n.flows[k] {
		if f.drainedAt.IsZero() {
			active++
		}
	}
	if !ok {
		return BandwidthProbe{}, fmt.Errorf("simgrid: no link %s—%s", a, b)
	}
	// Positive by construction: Connect enforces positive bandwidth and
	// utilization is clamped below 1.
	return BandwidthProbe{
		SteadyStateMBps: l.EffectiveMBps() / float64(active+1),
		Latency:         l.Latency,
	}, nil
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
