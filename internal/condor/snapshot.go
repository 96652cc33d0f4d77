package condor

import (
	"fmt"
	"time"

	"repro/internal/classad"
	"repro/internal/durable"
)

// Export serializes the pool's queue for the durable snapshot codec:
// every job ever submitted (terminal jobs keep their accounting record),
// the ID allocator, and — for jobs occupying a machine — the claim as a
// lease expiring leaseTTL from now. The live pool is the lease authority,
// so an export always stamps its claims fresh; a snapshot that sits on
// disk longer than leaseTTL of simulated time therefore recovers with its
// leases expired and its running jobs requeued.
func (p *Pool) Export(leaseTTL time.Duration) durable.PoolState {
	now := p.grid.Engine.Now()
	st := durable.PoolState{Name: p.Name, NextID: len(p.jobs), Jobs: make([]durable.JobState, 0, len(p.jobs))}
	for _, j := range p.jobs {
		if j == nil {
			continue
		}
		js := durable.JobState{
			ID:             j.id,
			Ad:             j.ad.String(),
			Status:         int(j.status),
			Priority:       j.priority,
			Owner:          j.owner,
			SubmitTime:     p.timeOf(j.submitted),
			StartTime:      p.timeOf(j.started),
			CompletionTime: p.timeOf(j.completed),
			CPUSeconds:     p.cpuSeconds(j),
			WallClock:      p.wallClock(j),
		}
		if j.host != nil {
			js.Node = j.host.node.Name
		}
		if j.claimed && (j.status == StatusRunning || j.status == StatusSuspended) {
			js.LeaseExpires = now.Add(leaseTTL)
		}
		st.Jobs = append(st.Jobs, js)
	}
	return st
}

// Restore rebuilds the queue from an exported state. It must run on an
// empty pool whose machines are already advertised, with the engine
// standing at the snapshot's capture instant.
//
// Lease reconciliation: a job whose lease is still live and whose machine
// still exists is re-bound to that machine and continues with its
// remaining work; an expired or unresolvable lease requeues the job idle
// — keeping its completed CPU-seconds only if the ad declares it
// checkpointable, since requeueing is a migration in all but name.
//
// Restore emits no events and reports nothing to the fair-share sink:
// listeners learn state by asking, and pre-crash usage is restored
// through the fair-share snapshot, not re-accrued.
func (p *Pool) Restore(st durable.PoolState) error {
	if len(p.jobs) != 0 {
		return fmt.Errorf("condor: restore into non-empty pool %s", p.Name)
	}
	if st.NextID < 0 {
		return fmt.Errorf("condor: restoring pool %s: next ID %d", p.Name, st.NextID)
	}
	now := p.grid.Engine.Now()
	// Every ID the snapshot handed out gets its slot: the table's length is
	// the ID allocator Submit mints fresh ones from.
	p.jobs = make([]*job, st.NextID)
	for _, js := range st.Jobs {
		if js.ID < 1 || js.ID > st.NextID {
			return fmt.Errorf("condor: restoring job %d: not among the snapshot's IDs 1..%d", js.ID, st.NextID)
		}
		ad, err := classad.ParseAd(js.Ad)
		if err != nil {
			return fmt.Errorf("condor: restoring job %d: %w", js.ID, err)
		}
		j := p.newJob(js.ID, ad, num(ad.Get(nameNeed), 0), js.SubmitTime)
		j.status = Status(js.Status)
		j.priority = js.Priority
		j.owner = js.Owner
		j.started = p.instantOf(js.StartTime)
		j.completed = p.instantOf(js.CompletionTime)
		j.cpuBase = js.CPUSeconds
		j.wallBase = js.WallClock
		if j.wallBase == 0 {
			// A snapshot from before the field existed: as for a migration.
			j.wallBase = time.Duration(j.cpuBase * float64(time.Second))
		}
		p.jobs[j.id-1] = j

		if j.status.Terminal() {
			// Terminal jobs keep their node name for the monitoring view
			// but hold no claim.
			j.host = p.machineByName(js.Node)
			j.seal()
			continue
		}
		p.active = append(p.active, j)
		p.liveCount++
		j.queue = p.queue(j.owner)

		if j.status == StatusRunning || j.status == StatusSuspended {
			m := p.machineByName(js.Node)
			leaseLive := !js.LeaseExpires.IsZero() && js.LeaseExpires.After(now)
			if m == nil || !leaseLive || m.freeIdx < 0 {
				p.requeueRestored(j)
				continue
			}
			p.rebind(j, m, now)
			continue
		}
		// Idle: nothing held; cpuBase is whatever the capture carried
		// (checkpointed submissions), which cpuSeconds re-exports.
		p.idleCount++
		j.queue.add(j)
	}
	p.requestWake()
	return nil
}

// requeueRestored turns a restored running/suspended job back into
// an idle one: its lease died with the crash. Non-checkpointable work is
// lost, exactly as it would be on a migration.
func (p *Pool) requeueRestored(j *job) {
	if !checkpointable(j.ad) {
		j.cpuBase, j.wallBase = 0, 0
	}
	j.status = StatusIdle
	j.host = nil
	p.idleCount++
	j.queue.add(j)
}

// rebind re-places a restored job on its leased machine: the task
// restarts with the remaining work, the claim is re-taken, the usage flow
// reopens at the load segment in force at the restored instant — at
// nothing for a suspended job — (the fair-share policy must already hold
// its restored accounts: a flow feeds the accounts it finds), and the
// status is reinstated without events or fair-share start observation.
func (p *Pool) rebind(j *job, m *machine, now time.Time) {
	remaining := j.stopAt() - j.cpuBase
	if remaining <= 0 {
		// The capture raced the task's end; the next harvest would have
		// finished the job, so finish it here.
		j.completed = p.instantOf(now)
		j.seal()
		p.liveCount--
		j.status = StatusFailed
		if !j.faulty() {
			j.status = StatusCompleted
			p.produceOutput(j)
		}
		return
	}
	p.runTask(j, m, remaining)
	if j.status == StatusSuspended {
		j.task.Suspend()
	}
	p.openUsage(j)
}

// machineByName resolves an advertised machine by node name.
func (p *Pool) machineByName(name string) *machine {
	if name == "" {
		return nil
	}
	for _, m := range p.machines {
		if m.node.Name == name {
			return m
		}
	}
	return nil
}
