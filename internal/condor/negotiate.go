package condor

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/classad"
	"repro/internal/simgrid"
)

// The pool's engine event: fold queued signals in, harvest completions,
// run one negotiation pass over the refreshed free machines, re-arm.

// onWake folds queued machine/node signals in, harvests task
// completions, re-rates the usage flows whose node changed its rate, runs
// one negotiation cycle, and re-arms. A failed (down) pool does not
// re-arm: Recover requests a fresh wakeup.
func (p *Pool) onWake(now time.Time) {
	p.drainReleases()
	if p.down {
		return
	}
	p.obsWakes.Inc()
	did := p.harvest(now)
	did += p.rerateFlows(now)
	did += p.negotiate(now)
	if did == 0 && p.loadWakeAt.IsZero() {
		p.obsIdleWakes.Inc()
	}
	p.rearm()
}

// rearm schedules the pool's next wakeup. The pool sleeps until an
// event wakes it, with two analytic exceptions, both the end of a load
// segment: the earliest instant a free machine's advertised load changes
// while idle jobs went unmatched (loadWakeAt, recorded by the last pass),
// and the earliest instant the rate of a node carrying one of the pool's
// usage flows changes (flowWakeAt). Nothing here asks for the next tick as such.
func (p *Pool) rearm() {
	if at := earlier(p.loadWakeAt, p.flowWakeAt); !at.IsZero() {
		p.wake.Request(at)
	}
}

// earlier returns the earlier of two instants, a zero one standing for
// never.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// harvest takes jobs whose tasks ran out to their terminal state:
// exactly the jobs whose completion deadlines fired (doneQ), in ID order,
// with the active list compacting lazily. A done task needs no Remove: the
// node dropped it the moment it completed. Returns the number of jobs
// taken to a terminal state.
func (p *Pool) harvest(now time.Time) int {
	ended := 0
	if len(p.doneQ) > 1 {
		slices.SortFunc(p.doneQ, func(a, b *job) int { return cmp.Compare(a.id, b.id) })
	}
	for _, j := range p.doneQ {
		if j.status == StatusRunning && j.task != nil && j.task.State() == simgrid.TaskDone {
			p.finish(j, now)
			ended++
		}
	}
	p.doneQ = p.doneQ[:0]
	if len(p.active) > 128 && len(p.active) > 2*p.liveCount {
		kept := p.active[:0]
		for _, j := range p.active {
			if !j.status.Terminal() {
				kept = append(kept, j)
			}
		}
		p.active = kept
	}
	return ended
}

// finish takes a job whose task ran out — or that had nothing left
// to run — to its terminal state: Failed when the task was cut at the
// fault-injection point, Completed, with its output, otherwise.
func (p *Pool) finish(j *job, now time.Time) {
	p.releaseClaim(j) // a no-op once taskDone has run
	j.completed = p.instantOf(now)
	if j.faulty() {
		p.setStatus(j, StatusFailed)
		return
	}
	p.setStatus(j, StatusCompleted)
	p.produceOutput(j)
}

// rerateFlows re-derives usage-flow rates where a node's per-task
// rate may have changed since the flow was last rated: on the machines
// whose node's observer fired (someone else placed, completed or removed a
// task there), and — once the earliest end of a load
// segment among the nodes carrying a flow has come (flowWakeAt) — on every
// machine carrying one of this pool's flows, its own and its flocking
// peer's, which also finds the next such instant. The work follows the
// machines, never the queue. Flows are visited in job-ID order, whatever
// machines they run on: several re-rated at one instant move one account's
// rate by float additions, whose result depends on their order. The
// harvest has already closed the flows of jobs completing at this wake.
// Returns the number of flows looked at.
func (p *Pool) rerateFlows(now time.Time) int {
	dirty := p.dirty
	p.dirty, p.dirtyScratch = p.dirtyScratch[:0], dirty
	due := p.flowScratch[:0]
	if !p.flowWakeAt.IsZero() && !now.Before(p.flowWakeAt) {
		p.flowWakeAt = time.Time{}
		due = p.appendFlowJobs(due, p.machines)
		if q := p.flockPeer; q != nil && q != p {
			due = p.appendFlowJobs(due, q.machines)
		}
	} else {
		for _, m := range dirty {
			if j := m.flowJob(p); j != nil {
				due = append(due, j)
			}
		}
	}
	slices.SortFunc(due, func(a, b *job) int { return cmp.Compare(a.id, b.id) })
	for _, j := range due {
		p.rerate(j)
	}
	p.flowScratch = due
	return len(due)
}

// appendFlowJobs appends to due the jobs of p whose usage flows are open
// on machines ms.
func (p *Pool) appendFlowJobs(due []*job, ms []*machine) []*job {
	for _, m := range ms {
		if j := m.flowJob(p); j != nil {
			due = append(due, j)
		}
	}
	return due
}

// produceOutput materializes the job's declared output file in the
// site's storage element, so Backup & Recovery can fetch "local files that
// were produced". Only a job whose ad names one reads it.
func (p *Pool) produceOutput(j *job) {
	if !j.hasOutput {
		return
	}
	_ = p.site.Storage().Put(text(j.ad.Get(nameOutputFile)), num(j.ad.Get(nameOutputMB), 1))
}

// negotiate matches idle jobs to free machines in negotiation
// order; each job picks its highest-Rank matching machine. Idle jobs
// arrive from the incrementally maintained queues (see queue.go), and
// the walk stops the moment no offer remains — O(matched) plus the
// stream's small per-owner bookkeeping, instead of O(idle log idle) every
// pass. Offers are counted up front: local free machines not excluded for
// this pass, plus the flocking peer's snapshot. Jobs that match nothing
// consume no offer and the stream simply moves on, so a queue full of
// unmatchable jobs still drains passes quickly once offers run out. The
// pass records, in loadWakeAt, the earliest instant a free machine's
// advertised load is known to change — the only time-driven reason to
// negotiate again before the next event. Returns the number of jobs
// matched.
func (p *Pool) negotiate(now time.Time) int {
	p.loadWakeAt = time.Time{}
	if p.negotiateOracle != nil {
		return p.negotiateOracle(now)
	}
	if p.idleCount == 0 {
		return 0
	}
	var t0 time.Time
	if p.obsPasses != nil {
		t0 = time.Now() //lint:walltime telemetry: real pass latency for operator metrics, never read back into sim state
	}
	matched := p.match(now, p.refreshFree(now))
	if p.obsPasses != nil {
		p.obsPasses.Inc()
		p.obsMatches.Add(int64(matched))
		p.obsPassSeconds.Observe(time.Since(t0).Seconds()) //lint:walltime telemetry: real pass latency for operator metrics, never read back into sim state
	}
	return matched
}

// match is a pass after its refresh: it starts idle jobs, in
// negotiation order, on the offers st counts and the flocking peer's, and
// records loadWakeAt. Returns the number of jobs matched.
func (p *Pool) match(now time.Time, st freeStats) int {
	var peerFree []*machine
	if p.flockPeer != nil {
		var pst freeStats
		peerFree, pst = p.flockPeer.snapshotFreeFor(now, p.peerScratch[:0])
		p.peerScratch = peerFree
		st.merge(pst)
	}
	matched := 0
	if st.avail > 0 || len(peerFree) > 0 {
		stream := p.negotiationStream(now)
		for st.avail > 0 || len(peerFree) > 0 {
			j := stream.next()
			if j == nil {
				break
			}
			var m *machine
			if st.avail > 0 {
				m = p.pickIndexed(j)
			}
			if m != nil {
				st.avail--
			} else if len(peerFree) > 0 {
				m, _ = p.bestCandidate(j, peerFree, nil, 0)
				peerFree = removeMachine(peerFree, m)
			}
			if m == nil {
				continue
			}
			p.start(j, m, now)
			matched++
		}
	}
	if p.idleCount > 0 {
		// Unmatched idle jobs remain: wake when a free machine's load is
		// next known to change — the earliest segment boundary; with no free
		// machines at all, only events can change the picture and no timer
		// is needed.
		p.loadWakeAt = st.until
	}
	return matched
}

// freeStats summarizes the free machines a pass starts with: how many
// offers it holds, and when their advertised loads next change — the
// earliest segment boundary (until).
type freeStats struct {
	avail int
	until time.Time
}

func (st *freeStats) observe(until time.Time) {
	st.avail++
	st.merge(freeStats{until: until})
}

func (st *freeStats) merge(o freeStats) {
	st.until = earlier(st.until, o.until)
}

// refreshFree prepares the pool's free machines for one negotiation
// pass: queued cross-pool releases fold back in, and each machine that
// needs it is visited — its LoadAvg written into its ad, or, occupied by
// an externally placed task (the pool's free set only tracks its own
// placements), excluded for this pass — and collected into p.changed
// when the ordered views must take it in afresh.
//
// The pool keeps what a visit finds (offers, offersUntil), so a pass
// visits only the machines listed fresh since the last: those that entered
// the free set, and one whose offer a pass spent without a claim. A
// machine that stayed free, unvisited, still reads as it did: its node's
// tasks change only through the node's observer, which asks for a walk of
// every free machine instead (rewalk), as does a flocking peer's snapshot,
// which writes LoadAvg. Its load changes only where a segment ends, and
// a counted machine's segment end asks for the same walk: offersUntil is
// then not zero, and time alone may change its LoadAvg.
// Either way each machine is visited the same way, and the pass sees what
// a walk of every free machine would.
func (p *Pool) refreshFree(now time.Time) freeStats {
	// New pass: the classes the last pass had no use for go, so the map
	// holds only the rank classes now queued. A machine that joined
	// renumbers the machines, which drops every view.
	if len(p.byName) != len(p.machines) {
		p.numberMachines()
	}
	for class, cv := range p.pickViews {
		if cv.gen != p.pickGen {
			delete(p.pickViews, class)
		}
	}
	p.pickGen++
	p.changed = p.changed[:0]
	p.drainReleases()
	visit := func(m *machine) {
		if m.node.TaskCount() > 0 {
			m.skipFor = p
			p.count(m, false)
		} else {
			m.skipFor = nil
			v, until := m.node.LoadSegment(now)
			m.setLoadAvg(v)
			p.count(m, true)
			p.offersUntil = earlier(p.offersUntil, until)
		}
		if m.viewDirty {
			m.viewDirty, m.viewGen = false, p.pickGen
			p.changed = append(p.changed, m)
		}
	}
	all := p.rewalk || !p.offersUntil.IsZero()
	p.rewalk = false
	fresh := p.fresh
	p.fresh, p.freshScratch = p.freshScratch[:0], fresh
	for _, m := range fresh {
		m.fresh = false
	}
	if all {
		p.offersUntil = time.Time{}
		p.visitFree(visit)
	} else {
		for _, m := range fresh {
			if m.freeIdx < 0 {
				continue // claimed since: a release lists it again
			}
			visit(m)
		}
	}
	return freeStats{avail: p.offers, until: p.offersUntil}
}

// count enters m into the pool's offers, or takes it out.
func (p *Pool) count(m *machine, in bool) {
	if m.counted == in {
		return
	}
	m.counted = in
	if in {
		p.offers++
	} else {
		p.offers--
	}
}

// setLoadAvg writes the machine's current load into its ad, skipping
// the ad mutation (a version bump, which recompiles the machine's matcher
// and stales its place in the ordered views) when the value hasn't changed
// since the last pass — the overwhelmingly common case for idle and
// piecewise-constant machines at scale.
func (m *machine) setLoadAvg(v float64) {
	if m.loadAvgSet && m.loadAvg == v {
		return
	}
	m.ad.SetValue("LoadAvg", classad.Real(v))
	m.loadAvg, m.loadAvgSet = v, true
	m.viewDirty = true
}

// snapshotFreeFor lists this pool's free machines for a flocking peer's
// negotiation pass, refreshing each ad's LoadAvg. The caller
// supplies (and re-owns) the scratch buffer.
func (p *Pool) snapshotFreeFor(now time.Time, buf []*machine) ([]*machine, freeStats) {
	var st freeStats
	if p.down {
		return buf, st
	}
	p.drainReleases()
	p.visitFree(func(m *machine) {
		if m.node.TaskCount() > 0 {
			return
		}
		m.skipFor = nil
		v, until := m.node.LoadSegment(now)
		m.setLoadAvg(v)
		st.observe(until)
		buf = append(buf, m)
	})
	p.rewalk = true // the owner's refresh must see the LoadAvg written here
	return buf, st
}

// visitFree is the walk of every free machine both negotiation views
// share: visit runs once per free machine. The caller has folded queued
// cross-pool releases in.
func (p *Pool) visitFree(visit func(*machine)) {
	for _, b := range p.freeBuckets {
		for _, m := range b {
			visit(m)
		}
	}
}
