package condor

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/classad"
	"repro/internal/simgrid"
)

// The job-facing API of the pool (the schedd side): submitting jobs,
// reading them back, and the steering commands — suspend, resume, remove,
// re-prioritise, checkpoint.

// Submit enqueues a job described by ad. The ad must carry AttrCpuSeconds
// (the ground-truth work) and should carry AttrOwner; the pool keeps a
// copy of it. The returned ID is the pool-local "Condor ID".
func (p *Pool) Submit(ad *classad.Ad) (int, error) { return p.submit(ad, 0) }

// SubmitCheckpointed enqueues a job that already completed cpuDone seconds
// of work elsewhere — the flocking/steering migration path for
// checkpointable jobs.
func (p *Pool) SubmitCheckpointed(ad *classad.Ad, cpuDone float64) (int, error) {
	if cpuDone < 0 {
		return 0, fmt.Errorf("condor: negative checkpoint %v", cpuDone)
	}
	return p.submit(ad, cpuDone)
}

// submit queues a job whose checkpoint, if the ad allows one, carries
// cpuDone seconds of work; a job that is not checkpointable restarts from
// zero. The checkpoint is in place before the job is queued: from then on
// the engine may start it, with whatever work is left.
func (p *Pool) submit(ad *classad.Ad, cpuDone float64) (int, error) {
	if ad == nil {
		return 0, fmt.Errorf("condor: nil job ad")
	}
	need := num(ad.Get(nameNeed), 0)
	if need <= 0 {
		return 0, fmt.Errorf("condor: job ad missing positive %s", AttrCpuSeconds)
	}
	if p.down {
		return 0, ErrPoolDown
	}
	id := len(p.jobs) + 1
	j := p.newJob(id, ad, need, p.grid.Engine.Now())
	if cpuDone > 0 && checkpointable(j.ad) {
		// A migration carries the checkpointed CPU at Mips 1 as its wall-clock.
		j.cpuBase = cpuDone
		j.wallBase = time.Duration(cpuDone * float64(time.Second))
	}
	p.jobs = append(p.jobs, j)
	p.active = append(p.active, j)
	p.liveCount++
	p.idleCount++
	j.queue = p.queue(j.owner)
	j.queue.add(j)
	p.emit(j, 0, StatusIdle)
	p.requestWake()
	return id, nil
}

// Job returns a snapshot of the identified job.
func (p *Pool) Job(id int) (JobInfo, error) {
	if p.down {
		return JobInfo{}, ErrPoolDown
	}
	j := p.job(id)
	if j == nil {
		return JobInfo{}, fmt.Errorf("%w: %d", ErrNoSuchJob, id)
	}
	return p.snapshot(j, p.queuePosition(j)), nil
}

// Jobs returns snapshots of every job, ordered by ID. The idle ones take
// their queue positions from one drain of the negotiation stream.
func (p *Pool) Jobs() ([]JobInfo, error) {
	if p.down {
		return nil, ErrPoolDown
	}
	out := make([]JobInfo, 0, len(p.jobs))
	for _, j := range p.jobs {
		if j != nil {
			out = append(out, p.snapshot(j, 0))
		}
	}
	if p.idleCount > 0 {
		for i, j := range p.idleOrdered() {
			k, _ := slices.BinarySearchFunc(out, j.id, func(info JobInfo, id int) int { return cmp.Compare(info.ID, id) })
			out[k].QueuePosition = i + 1
		}
	}
	return out, nil
}

// job returns the job with the given ID, or nil. IDs are handed out
// densely from 1: job id sits at jobs[id-1], the next ID is the table's
// length plus one, and only a snapshot that skips IDs leaves nil slots.
func (p *Pool) job(id int) *job {
	if id < 1 || id > len(p.jobs) {
		return nil
	}
	return p.jobs[id-1]
}

// LiveJobs returns snapshots of the non-terminal jobs in submission order,
// without queue positions: a walk of the active list, whose cost follows
// the jobs now in the pool rather than every job it ever held, for callers
// that total over the queue.
func (p *Pool) LiveJobs() ([]JobInfo, error) {
	if p.down {
		return nil, ErrPoolDown
	}
	out := make([]JobInfo, 0, p.liveCount)
	for _, j := range p.active {
		if !j.status.Terminal() {
			out = append(out, p.snapshot(j, 0))
		}
	}
	return out, nil
}

// QueueAbove returns the running and idle jobs scheduled ahead of job id
// — the queue-time estimator's step (a)/(b) input. Under the default
// static policy that is every non-terminal job with strictly greater
// priority; when a fair-share policy is installed, it is every running
// job plus the idle jobs the policy orders before this one, so queue-time
// estimates track the order the negotiator will actually use.
func (p *Pool) QueueAbove(id int) ([]JobInfo, error) {
	if p.down {
		return nil, ErrPoolDown
	}
	j := p.job(id)
	if j == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchJob, id)
	}
	var out []JobInfo
	if p.fair != nil {
		// Running and suspended jobs both hold machines the target must
		// wait on (a suspended task keeps its node until resumed); they
		// carry no queue position, so the ordering pass is only paid when
		// the target itself is idle.
		for _, o := range p.active {
			if o.id != id && (o.status == StatusRunning || o.status == StatusSuspended) {
				out = append(out, p.snapshot(o, 0))
			}
		}
		if j.status == StatusIdle {
			s := p.negotiationStream(p.grid.Engine.Now())
			for o, n := s.next(), 1; o != nil && o != j; o, n = s.next(), n+1 {
				out = append(out, p.snapshot(o, n))
			}
		}
		return out, nil
	}
	pos := positionsOf(p.idleOrdered())
	for _, o := range p.active {
		if o.id == id || o.status.Terminal() {
			continue
		}
		if o.priority > j.priority {
			out = append(out, p.snapshot(o, pos[o.id]))
		}
	}
	return out, nil
}

// Suspend pauses a running job (paper: "pause").
func (p *Pool) Suspend(id int) error {
	return p.transition(id, func(j *job) error {
		if j.status != StatusRunning {
			return fmt.Errorf("condor: job %d is %v, cannot suspend", id, j.status)
		}
		j.task.Suspend()
		p.rerate(j) // a paused task consumes nothing
		p.setStatus(j, StatusSuspended)
		return nil
	})
}

// Resume continues a suspended job.
func (p *Pool) Resume(id int) error {
	return p.transition(id, func(j *job) error {
		if j.status != StatusSuspended {
			return fmt.Errorf("condor: job %d is %v, cannot resume", id, j.status)
		}
		j.task.Resume()
		p.rerate(j) // at what the node gives it now, not what it had
		p.setStatus(j, StatusRunning)
		if j.task.State() == simgrid.TaskDone {
			// The task completed before the suspend caught it; re-enter the
			// harvest queue so the fast path still promotes it.
			p.doneQ = append(p.doneQ, j)
			p.requestWake()
		}
		p.rearm() // the flow may have a load boundary to be woken at
		return nil
	})
}

// Remove kills a job (paper: "kill"); idle jobs leave the queue, running
// jobs are torn down.
func (p *Pool) Remove(id int) error {
	return p.transition(id, func(j *job) error {
		if j.status.Terminal() {
			return fmt.Errorf("condor: job %d already %v", id, j.status)
		}
		p.detach(j)
		j.completed = p.instantOf(p.grid.Engine.Now())
		p.setStatus(j, StatusRemoved)
		return nil
	})
}

// SetPriority changes a pending or running job's priority (paper: "change
// priority of the job"). Queue order adjusts on the next negotiation.
func (p *Pool) SetPriority(id, prio int) error {
	return p.transition(id, func(j *job) error {
		if j.status.Terminal() {
			return fmt.Errorf("condor: job %d already %v", id, j.status)
		}
		j.priority = prio
		j.ad.Set(AttrPriority, prio)
		if j.status == StatusIdle {
			j.queue.refile(j)
		}
		p.requestWake() // queue order changed; re-negotiate next boundary
		return nil
	})
}

// Checkpoint records and returns the job's completed CPU-seconds; a
// subsequent SubmitCheckpointed elsewhere resumes from this point.
func (p *Pool) Checkpoint(id int) (float64, error) {
	var cpu float64
	err := p.transition(id, func(j *job) error {
		cpu = p.cpuSeconds(j)
		return nil
	})
	return cpu, err
}

// transition runs fn on the identified job of a pool that is up.
func (p *Pool) transition(id int, fn func(*job) error) error {
	if p.down {
		return ErrPoolDown
	}
	j := p.job(id)
	if j == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchJob, id)
	}
	return fn(j)
}
