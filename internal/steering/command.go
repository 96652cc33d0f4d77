package steering

import (
	"fmt"

	"repro/internal/condor"
	"repro/internal/estimator"
	"repro/internal/scheduler"
)

// The Command Processor: client- and optimizer-issued job control. Every
// entry point authorizes through the Session Manager first, then acts on
// the execution service directly — except redirection, which is "sent to
// the scheduler (Sphinx)" per the paper.

// onJob authorizes user against the task's owner, then applies act to
// the task's job at the execution service currently running it.
func (s *Service) onJob(user string, ref TaskRef, act func(p *condor.Pool, id int) error) error {
	w, a, err := s.lookup(ref)
	if err != nil {
		return err
	}
	if err := s.Sessions.Authorize(user, w.owner()); err != nil {
		return err
	}
	if a.Site == "" || a.CondorID == 0 {
		return fmt.Errorf("steering: task %s is not submitted (state %v)", w.ref, a.State)
	}
	svc, ok := s.cfg.Scheduler.SiteServicesFor(a.Site)
	if !ok {
		return fmt.Errorf("steering: site %q not registered", a.Site)
	}
	return act(svc.Pool, a.CondorID)
}

// Kill terminates a task on behalf of user.
func (s *Service) Kill(user string, ref TaskRef) error {
	return s.onJob(user, ref, (*condor.Pool).Remove)
}

// Pause suspends a running task.
func (s *Service) Pause(user string, ref TaskRef) error {
	return s.onJob(user, ref, (*condor.Pool).Suspend)
}

// Resume continues a paused task.
func (s *Service) Resume(user string, ref TaskRef) error {
	return s.onJob(user, ref, (*condor.Pool).Resume)
}

// SetPriority changes a task's priority.
func (s *Service) SetPriority(user string, ref TaskRef, prio int) error {
	return s.onJob(user, ref, func(p *condor.Pool, id int) error { return p.SetPriority(id, prio) })
}

// Move redirects a task to another execution site. With target == "" the
// scheduler picks the best site by its usual scoring (excluding the
// current site); otherwise the task goes to the named site. Redirection
// always flows through the scheduler, as in the paper.
func (s *Service) Move(user string, ref TaskRef, target string) (scheduler.Assignment, error) {
	w, a, err := s.lookup(ref)
	if err != nil {
		return scheduler.Assignment{}, err
	}
	if err := s.Sessions.Authorize(user, w.owner()); err != nil {
		return scheduler.Assignment{}, err
	}
	return s.moveTask(w, a, target, fmt.Sprintf("moved by %s", user))
}

// moveTask performs the redirection of a task assigned as before and
// notifies the owner. target == "" lets the scheduler choose.
func (s *Service) moveTask(w watched, before scheduler.Assignment, target string, reason string) (scheduler.Assignment, error) {
	var exclude []string
	if target != "" {
		for _, site := range s.cfg.Scheduler.Sites() {
			if site != target {
				exclude = append(exclude, site)
			}
		}
		if before.Site == target {
			return before, fmt.Errorf("steering: task %s already at %s", w.ref, target)
		}
	}
	after, err := s.cfg.Scheduler.Reschedule(w.cp, w.ref.Task, exclude)
	if err != nil {
		return scheduler.Assignment{}, err
	}
	s.record(w.ref).moves++
	s.notify(w.owner(), Notification{
		Time: s.cfg.Grid.Engine.Now(),
		Plan: w.ref.Plan,
		Task: w.ref.Task,
		Kind: "moved",
		Message: fmt.Sprintf("task %s moved %s → %s (%s)",
			w.ref, orDash(before.Site), after.Site, reason),
	})
	return after, nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// EstimateCompletion returns the Optimizer's view of the expected time to
// completion (seconds) for a watched task at its current site: the
// remaining runtime estimate plus, while the job is idle, its queue time
// now. Clients use it through the steering API ("the steering service
// determines the estimated time to completion of a job ... by invoking
// the estimator service").
func (s *Service) EstimateCompletion(ref TaskRef) (float64, error) {
	st, err := s.TaskStatus(ref)
	if err != nil {
		return 0, err
	}
	if !st.HaveJob {
		return 0, fmt.Errorf("steering: no live job for %s", ref)
	}
	if st.Job.Status != condor.StatusIdle {
		return st.Job.RemainingEstimate, nil
	}
	svc, ok := s.cfg.Scheduler.SiteServicesFor(st.Assignment.Site)
	if !ok {
		return 0, fmt.Errorf("steering: site %q not registered", st.Assignment.Site)
	}
	q, err := estimator.QueueTime(svc.Pool, st.Assignment.CondorID)
	if err != nil {
		return 0, err
	}
	return st.Job.RemainingEstimate + q.Seconds, nil
}
