package condor

import "strings"

// JobInfo views of the pool's jobs and their positions in the queue.

// idlePositionsLocked maps idle job IDs to their 1-based place in
// negotiation order. Bulk snapshotters compute it once so a whole-queue
// listing costs one ordering pass instead of one per job.
func (p *Pool) idlePositionsLocked() map[int]int {
	return positionsOf(p.idleOrderedLocked())
}

func positionsOf(ordered []*job) map[int]int {
	pos := make(map[int]int, len(ordered))
	for i, j := range ordered {
		pos[j.id] = i + 1
	}
	return pos
}

// snapshotLocked builds the JobInfo view of a single job, paying for an
// ordering pass only when the job is idle.
func (p *Pool) snapshotLocked(j *job) JobInfo {
	var pos map[int]int
	if j.status == StatusIdle {
		pos = p.idlePositionsLocked()
	}
	return p.snapshotPosLocked(j, pos)
}

// snapshotPosLocked builds the JobInfo view using precomputed idle
// positions.
func (p *Pool) snapshotPosLocked(j *job, pos map[int]int) JobInfo {
	now := p.grid.Engine.Now()
	info := JobInfo{
		ID:               j.id,
		Pool:             p.Name,
		Status:           j.status,
		Owner:            j.owner,
		Cmd:              j.ad.Str(AttrCmd, ""),
		Priority:         j.priority,
		Env:              j.ad.Str(AttrEnv, ""),
		SubmitTime:       j.submitTime,
		StartTime:        j.startTime,
		CompletionTime:   j.completionTime,
		EstimatedRuntime: j.ad.Float(AttrEstimate, 0),
		InputMB:          j.ad.Float(AttrInputMB, 0),
		OutputMB:         j.ad.Float(AttrOutputMB, 0),
		CPUSeconds:       p.cpuSecondsLocked(j),
		WallClock:        p.wallClockLocked(j),
	}
	if j.node != nil {
		info.Node = j.node.Name
	}
	if need := j.need; need > 0 {
		info.Progress = info.CPUSeconds / need
		if info.Progress > 1 {
			info.Progress = 1
		}
	}
	end := now
	if !j.completionTime.IsZero() {
		end = j.completionTime
	}
	info.Elapsed = end.Sub(j.submitTime)
	if info.EstimatedRuntime > 0 {
		rem := info.EstimatedRuntime - info.WallClock.Seconds()
		if rem < 0 {
			rem = 0
		}
		info.RemainingEstimate = rem
	}
	if j.status == StatusIdle {
		info.QueuePosition = pos[j.id]
	}
	return info
}

// ParseEnv splits the AttrEnv convention "K=V;K2=V2" into a map.
func ParseEnv(env string) map[string]string {
	out := make(map[string]string)
	for _, kv := range strings.Split(env, ";") {
		if kv == "" {
			continue
		}
		if i := strings.IndexByte(kv, '='); i > 0 {
			out[kv[:i]] = kv[i+1:]
		}
	}
	return out
}
