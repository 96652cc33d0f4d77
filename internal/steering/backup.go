package steering

import (
	"fmt"
	"time"

	"repro/internal/condor"
	"repro/internal/scheduler"
)

// The Backup & Recovery module (paper §4.2.4).

// serviceFailureGrace is how long an execution service must stay
// unhealthy before Backup & Recovery reallocates its jobs.
const serviceFailureGrace = 20 * time.Second

// handleServiceFailure reacts to a dead execution service: after the
// grace period, the module "contacts Sphinx to allocate a new execution
// service" and the scheduler resubmits the job there.
func (s *Service) handleServiceFailure(w watched, a scheduler.Assignment, now time.Time) {
	st := s.record(w.ref)
	if st.downSince.IsZero() {
		st.downSince = now
	}
	waited := now.Sub(st.downSince)
	if st.downHandled || waited < serviceFailureGrace {
		return
	}
	st.downHandled = true
	s.notify(w.owner(), Notification{
		Time: now, Plan: w.ref.Plan, Task: w.ref.Task, Kind: "service-failure",
		Message: fmt.Sprintf("execution service at %s unresponsive for %v; reallocating", a.Site, waited),
	})
	if na, err := s.cfg.Scheduler.Resubmit(w.cp, w.ref.Task); err == nil {
		s.notify(w.owner(), Notification{
			Time: now, Plan: w.ref.Plan, Task: w.ref.Task, Kind: "recovered",
			Message: fmt.Sprintf("task %s resubmitted to %s after service failure at %s",
				w.ref, na.Site, a.Site),
		})
	}
}

// handleJobFailure reacts to a failed job: "If a running job fails, the
// Steering Service notifies the client about the failure. It then
// contacts the execution service to get all the local files that were
// produced by the failed job."
func (s *Service) handleJobFailure(w watched, a scheduler.Assignment, info condor.JobInfo, now time.Time) {
	if !s.firstTerminal(w.ref) {
		return
	}
	s.collectFiles(w, a)
	s.notify(w.owner(), Notification{
		Time: now, Plan: w.ref.Plan, Task: w.ref.Task, Kind: "failed",
		Message: fmt.Sprintf("task %s failed at %s after %.0f cpu-seconds",
			w.ref, a.Site, info.CPUSeconds),
	})
}

// handleTerminal announces completion (or scheduler-level failure) once
// and captures the execution state: "For completed jobs, the Backup and
// Recovery module notifies the client about the completion of the job and
// gets the execution state from the execution service. This execution
// state is made available for download."
func (s *Service) handleTerminal(w watched, a scheduler.Assignment, now time.Time) {
	if !s.firstTerminal(w.ref) {
		return
	}
	s.collectFiles(w, a)
	kind, msg := "completed", fmt.Sprintf("task %s completed at %s", w.ref, a.Site)
	if a.State == scheduler.TaskFailed {
		kind, msg = "failed", fmt.Sprintf("task %s failed at %s", w.ref, a.Site)
	}
	s.notify(w.owner(), Notification{
		Time: now, Plan: w.ref.Plan, Task: w.ref.Task, Kind: kind, Message: msg,
	})
}

// firstTerminal marks ref's terminal state announced and reports whether
// it was not already.
func (s *Service) firstTerminal(ref TaskRef) bool {
	st := s.record(ref)
	first := !st.terminalNotified
	st.terminalNotified = true
	return first
}

// collectFiles snapshots the task's output files from the execution
// site's storage element into the downloadable execution state.
func (s *Service) collectFiles(w watched, a scheduler.Assignment) {
	task, ok := w.cp.Plan.Task(w.ref.Task)
	if !ok || task.OutputFile == "" || a.Site == "" {
		return
	}
	site := s.cfg.Grid.Site(a.Site)
	if site == nil {
		return
	}
	if f, ok := site.Storage().Get(task.OutputFile); ok {
		s.execState[w.ref] = append(s.execState[w.ref], f)
	}
}
