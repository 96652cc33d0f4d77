package condor

import (
	"time"

	"repro/internal/simgrid"
)

// What holds while a job occupies a machine: the free set and the claim
// on it, the task on the node, the fair-share usage it accrues, and the
// status transitions that open and close all three.

// addFree inserts m into its arch bucket. Entering is what the ordered
// views key on, and what the next pass's refresh visits.
func (p *Pool) addFree(m *machine) {
	if m.freeIdx >= 0 {
		return
	}
	m.viewDirty = true
	p.revisit(m)
	b := p.freeBuckets[m.archKey]
	m.freeIdx = len(b)
	p.freeBuckets[m.archKey] = append(b, m)
}

// revisit lists m, once, for the next pass's refresh to visit.
func (p *Pool) revisit(m *machine) {
	if !m.fresh {
		m.fresh = true
		p.fresh = append(p.fresh, m)
	}
}

// removeFree swap-removes m from its arch bucket, and from the
// pool's offers.
func (p *Pool) removeFree(m *machine) {
	if m.freeIdx < 0 {
		return
	}
	p.count(m, false)
	b := p.freeBuckets[m.archKey]
	last := len(b) - 1
	moved := b[last]
	b[m.freeIdx] = moved
	moved.freeIdx = m.freeIdx
	b[last] = nil
	p.freeBuckets[m.archKey] = b[:last]
	m.freeIdx = -1
}

// releaseClaim returns j's claimed machine (if any) to its owner's
// free set — the completion/removal half of the incremental free-set
// maintenance. A foreign (flocked-onto) machine is enqueued on its
// owner's release queue, which the owner folds in at its next wake or
// peer snapshot.
func (p *Pool) releaseClaim(j *job) {
	if !j.claimed {
		return
	}
	j.claimed = false
	m := j.host
	o := m.owner
	if o == p {
		p.addFree(m)
	} else {
		o.pendingRel = append(o.pendingRel, m)
	}
	// A machine freed is its owner's signal to negotiate again (and, for
	// a foreign machine, to fold the queued release back into its free
	// set even if it has nothing else scheduled); pools flocking into the
	// owner read the same free set, so they wake too.
	o.requestWake()
	o.wakeFlockedFrom()
}

// drainReleases folds queued foreign releases into the free
// buckets. Called wherever the buckets are about to be read — tick
// start, pass refresh, peer snapshot — so the indexed view never lags
// the physical machine state a full rescan would observe.
func (p *Pool) drainReleases() {
	for _, m := range p.pendingRel {
		p.addFree(m)
	}
	p.pendingRel = p.pendingRel[:0]
}

func removeMachine(ms []*machine, m *machine) []*machine {
	if m == nil {
		return ms
	}
	for i, x := range ms {
		if x == m {
			return append(ms[:i], ms[i+1:]...)
		}
	}
	return ms
}

// start launches job j on machine m, claiming the machine in its
// owner's free set for as long as the task occupies the node.
func (p *Pool) start(j *job, m *machine, now time.Time) {
	need := j.stopAt() - j.cpuBase
	if need <= 0 {
		// Checkpoint covered all remaining work (or carried the job past
		// its fault-injection point); finish immediately. No machine time
		// was consumed, so this is not an allocation for the starvation
		// guard — but the offer is spent for this pass, as it was under
		// the per-pass candidate list. The next pass's refresh lifts the
		// exclusion.
		m.skipFor = p
		if m.owner == p {
			p.revisit(m)
		}
		j.started = p.instantOf(now)
		p.finish(j, now)
		return
	}
	if p.fairStart != nil {
		p.fairStart.ObserveStart(j.queue.tenant, now)
	}
	p.runTask(j, m, need)
	if j.started == notYet {
		j.started = p.instantOf(now)
	}
	p.openUsage(j)
	p.setStatus(j, StatusRunning)
}

// runTask claims m for j and places a task for need CPU-seconds on
// its node, with the machine as its Completer: the machine names the job
// it runs, so a start allocates no closure. On the pool's own machine
// the placement is unobserved: the pool is the node's observer, it knows
// what it just placed (the claim is taken, and the usage flow opens next
// at the right rate), and the completion comes back through taskDone —
// marking the node dirty and waking for either would only buy a pass that
// finds nothing changed. A flocked-onto machine belongs to another pool,
// which is told as ever.
func (p *Pool) runTask(j *job, m *machine, need float64) {
	m.owner.removeFree(m)
	j.host, j.claimed = m, true
	m.runner, m.runnerPool = j, p
	j.task = simgrid.NewTaskFor(need, m)
	if m.owner == p {
		m.node.PlaceUnobserved(j.task)
	} else {
		m.node.Place(j.task)
	}
}

// taskDone is what every pool task's Completer, its machine, calls when
// the completion deadline is reached. The claim is released at once (the node drops finished tasks
// immediately), not at the next harvest — so the free set always mirrors
// the physical machine state a full rescan would observe, including for
// flocking peers that negotiate between this pool's harvests. Job status
// still transitions at harvest time, driven by the doneQ entry left here,
// and the release requests the wake that runs it: at this boundary if the
// pool's turn is still ahead, otherwise at the next one — the same tick a
// harvest at every boundary would see the completion.
func (p *Pool) taskDone(j *job) {
	own := j.claimed && j.host.owner == p
	p.releaseClaim(j)
	p.doneQ = append(p.doneQ, j)
	if !own {
		p.requestWake() // a flocked-onto machine's release woke its owner, not this pool
	}
}

// openUsage opens j's usage flow against the installed policy, at
// the rate its node gives its task now; the flow is the one way running
// CPU reaches a fair-share policy. With no policy that takes flows
// installed, nothing is accounted.
func (p *Pool) openUsage(j *job) {
	if p.fairFlow == nil {
		return
	}
	j.flowRate = p.flowRateFor(j)
	j.flow = p.fairFlow.OpenFlow(j.queue.tenant, j.host.node.Site, j.flowRate)
}

// flowRateFor returns what j's usage flow accrues per second from
// now on: what its node gives each running task in the load segment in
// force (Node.RateSegment), nothing while j's own task is paused. The
// rate holds until the node's load segment ends or its occupancy changes;
// the first is folded into flowWakeAt so the pool is woken to ask again,
// the second reaches the pool as a dirty node.
func (p *Pool) flowRateFor(j *job) float64 {
	if j.task.State() != simgrid.TaskRunning {
		return 0
	}
	rate, until := j.host.node.RateSegment(p.grid.Engine.Now())
	p.flowWakeAt = earlier(p.flowWakeAt, until)
	return rate
}

// rerate brings j's usage flow, if it has one, to the rate in force.
// A flow already at that rate is left alone, so a boundary between equal
// segments costs the policy's books nothing.
func (p *Pool) rerate(j *job) {
	if j.flow == nil {
		return
	}
	if rate := p.flowRateFor(j); rate != j.flowRate {
		j.flowRate = rate
		j.flow.SetRate(rate)
	}
}

// closeFlow settles and closes j's usage flow against the CPU-seconds
// its task measured: the flow accrues in floats at the node's analytic
// rate, the node in whole work units, and Close applies the residual.
// Work carried in from a checkpoint is excluded: the site that ran it
// accounted for it.
func (p *Pool) closeFlow(j *job) {
	j.flow.Close(max(p.cpuSeconds(j)-j.cpuBase, 0))
	j.flow = nil
}

// detach removes the job's task from its node, if any, and releases
// its machine claim.
func (p *Pool) detach(j *job) {
	if j.task != nil {
		j.task.Kill()
		j.host.node.Remove(j.task)
	}
	p.releaseClaim(j)
}

// cpuSeconds returns checkpoint base plus live task CPU.
func (p *Pool) cpuSeconds(j *job) float64 {
	cpu := j.cpuBase
	if j.task != nil {
		cpu += j.task.CPUSeconds()
	}
	return cpu
}

// wallClock returns the job's accumulated execution time: what it
// carried in plus what its task has run.
func (p *Pool) wallClock(j *job) time.Duration {
	wall := j.wallBase
	if j.task != nil {
		wall += j.task.WallClock()
	}
	return wall
}

// setStatus applies a state change, maintains the queue summary
// counters the wake-up policy reads, and notifies listeners. A job
// reaching a terminal state closes its usage flow with the measured total
// and is then sealed: every terminal transition passes here, so this is
// where a job becomes its terminal record.
func (p *Pool) setStatus(j *job, to Status) {
	from := j.status
	j.status = to
	if from == StatusIdle && to != StatusIdle {
		p.idleCount--
		j.queue.count-- // its entries go stale with the status and are collected lazily
	}
	if to.Terminal() {
		p.liveCount--
		if j.flow != nil {
			p.closeFlow(j)
		}
		j.seal()
	}
	p.emit(j, from, to)
}

func (p *Pool) emit(j *job, from, to Status) {
	if len(p.listeners) == 0 {
		return
	}
	ev := Event{Pool: p.Name, JobID: j.id, From: from, To: to, At: p.grid.Engine.Now()}
	for _, fn := range p.listeners {
		fn(ev)
	}
}
