package steering

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/condor"
	"repro/internal/scheduler"
)

// poll drives the Optimizer and the Backup & Recovery module; the
// engine's Poller invokes it on the service's PollInterval cadence.
func (s *Service) poll(now time.Time) {
	var tasks []watched
	for _, cp := range s.cfg.Scheduler.Plans() {
		for _, t := range cp.Plan.Tasks {
			tasks = append(tasks, watched{cp: cp, ref: TaskRef{Plan: cp.Plan.Name, Task: t.ID}})
		}
	}
	// Deterministic iteration order.
	sort.Slice(tasks, func(i, j int) bool {
		return tasks[i].ref.String() < tasks[j].ref.String()
	})
	for _, w := range tasks {
		s.pollTask(w, now)
	}
}

// pollTask runs one observation cycle for one task: terminal-state
// handling (Backup & Recovery), service-failure detection, and the
// Optimizer's slow-execution check.
func (s *Service) pollTask(w watched, now time.Time) {
	a, ok := w.cp.Assignment(w.ref.Task)
	if !ok {
		return
	}
	switch a.State {
	case scheduler.TaskCompleted, scheduler.TaskFailed:
		s.handleTerminal(w, a, now)
		return
	case scheduler.TaskSubmitted:
	default:
		return // pending or staging: nothing to watch yet
	}
	svc, ok := s.cfg.Scheduler.SiteServicesFor(a.Site)
	if !ok {
		return
	}
	// Backup & Recovery: "continuously checks all the Execution Services
	// ... for failure. In case of the failure of the Execution Service,
	// the Backup and Recovery module contacts Sphinx to allocate a new
	// execution service."
	if !svc.Pool.Healthy() {
		s.handleServiceFailure(w, a, now)
		return
	}
	if st := s.tasks[w.ref]; st != nil {
		st.downSince = time.Time{}
		st.downHandled = false
	}

	info, err := s.cfg.Monitor.Job(a.Site, a.CondorID)
	if err != nil {
		return
	}
	if info.Status == condor.StatusFailed {
		s.handleJobFailure(w, a, info, now)
		return
	}
	if s.AutoSteer && info.Status == condor.StatusRunning {
		s.optimize(w, a, info, now)
	}
}

// optimize is the Optimizer: detect a slow execution rate via the Job
// Monitoring Service and redirect the job to the best site.
func (s *Service) optimize(w watched, a scheduler.Assignment, info condor.JobInfo, now time.Time) {
	if st := s.tasks[w.ref]; st != nil && st.moves >= maxMoves {
		return
	}
	if info.StartTime.IsZero() {
		return
	}
	runningFor := now.Sub(info.StartTime)
	if runningFor < minObservation {
		return
	}
	// Execution rate: the fraction of real time the job actually got the
	// CPU. On an unloaded node this is ~1.0; Figure 7's site A delivers
	// ~0.3.
	rate := info.WallClock.Seconds() / runningFor.Seconds()
	if rate >= slownessThreshold {
		return
	}
	target, reason := s.chooseBestSite(w, a, info.EstimatedRuntime)
	if target == a.Site {
		return // nowhere better to go
	}
	_, err := s.moveTask(w, a, target,
		fmt.Sprintf("slow execution rate %.2f < %.2f; %s", rate, slownessThreshold, reason))
	_ = err // a failed move leaves the job where it is; next poll retries
}

// chooseBestSite applies the optimization preference. "The meaning of
// 'Best Site' depends on the optimization preference chosen (cheap or
// fast execution)." The cheap preference prices estimate, the runtime
// estimate in the job's ad (the scheduler stamps a positive one on every
// job it submits).
func (s *Service) chooseBestSite(w watched, a scheduler.Assignment, estimate float64) (site, reason string) {
	task, ok := w.cp.Plan.Task(w.ref.Task)
	if !ok {
		return a.Site, "plan lost"
	}
	if s.Preference == PreferCheap && s.cfg.Quota != nil {
		var candidates []string
		for _, site := range s.cfg.Scheduler.Sites() {
			if site != a.Site {
				candidates = append(candidates, site)
			}
		}
		if best, cost, err := s.cfg.Quota.CheapestSite(candidates, estimate, 0); err == nil {
			return best, fmt.Sprintf("cheapest site at %.2f credits", cost)
		}
	}
	// Fast preference (and cheap fallback): the scheduler's estimate-based
	// scoring, excluding the current site. The owner rides along so
	// fair-share standing breaks near-ties for migrations exactly as it
	// does for launches.
	best, _, err := s.cfg.Scheduler.SelectSiteFor(w.cp.Plan.Owner, task, map[string]bool{a.Site: true})
	if err != nil {
		return a.Site, "no alternative site"
	}
	return best.Site, fmt.Sprintf("fastest site (score %.1f)", best.Score)
}
