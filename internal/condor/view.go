package condor

// JobInfo views of the pool's jobs and their positions in the queue.

// positionsOf maps the IDs of jobs in negotiation order to their 1-based
// places.
func positionsOf(ordered []*job) map[int]int {
	pos := make(map[int]int, len(ordered))
	for i, j := range ordered {
		pos[j.id] = i + 1
	}
	return pos
}

// queuePosition returns j's 1-based place among the idle jobs in
// negotiation order, 0 when it is not idle: the stream is drained only up
// to j, so a status query costs the jobs ahead of it and no map of the
// queue.
func (p *Pool) queuePosition(j *job) int {
	if j.status != StatusIdle {
		return 0
	}
	s := p.negotiationStream(p.grid.Engine.Now())
	for n := 1; ; n++ {
		switch s.next() {
		case j:
			return n
		case nil:
			return 0
		}
	}
}

// snapshot builds the JobInfo view of a job at queue position pos
// (0 for a job that is not idle).
func (p *Pool) snapshot(j *job, pos int) JobInfo {
	now := p.grid.Engine.Now()
	info := JobInfo{
		ID:               j.id,
		Pool:             p.Name,
		Status:           j.status,
		Owner:            j.owner,
		Cmd:              text(j.ad.Get(nameCmd)),
		Priority:         j.priority,
		Env:              text(j.ad.Get(nameEnv)),
		SubmitTime:       p.timeOf(j.submitted),
		StartTime:        p.timeOf(j.started),
		CompletionTime:   p.timeOf(j.completed),
		EstimatedRuntime: num(j.ad.Get(nameEstimate), 0),
		InputMB:          num(j.ad.Get(nameInputMB), 0),
		OutputMB:         num(j.ad.Get(nameOutputMB), 0),
		CPUSeconds:       p.cpuSeconds(j),
		WallClock:        p.wallClock(j),
	}
	if j.host != nil {
		info.Node = j.host.node.Name
	}
	if need := j.need; need > 0 {
		info.Progress = info.CPUSeconds / need
		if info.Progress > 1 {
			info.Progress = 1
		}
	}
	end := now
	if j.completed != notYet {
		end = info.CompletionTime
	}
	info.Elapsed = end.Sub(info.SubmitTime)
	if info.EstimatedRuntime > 0 {
		rem := info.EstimatedRuntime - info.WallClock.Seconds()
		if rem < 0 {
			rem = 0
		}
		info.RemainingEstimate = rem
	}
	if j.status == StatusIdle {
		info.QueuePosition = pos
	}
	return info
}
