package scheduler

import (
	"fmt"

	"repro/internal/durable"
)

// ExportTasks serializes a concrete plan's per-task bindings for the
// durable snapshot codec (assignments are already task-ID sorted).
// Estimates and candidate lists are advisory decision records, not state
// the grid depends on, and are not exported.
func ExportTasks(cp *ConcretePlan) []durable.PlanTaskState {
	var out []durable.PlanTaskState
	for _, a := range cp.Assignments() {
		out = append(out, durable.PlanTaskState{
			TaskID:      a.TaskID,
			Site:        a.Site,
			CondorID:    a.CondorID,
			State:       int(a.State),
			SubmittedAt: a.SubmittedAt,
			Attempts:    a.Attempts,
		})
	}
	return out
}

// RestorePlan rebuilds a submitted plan from its exported bindings and
// registers it the way Submit does (add): the plan rejoins the plan
// table, where the steering service finds it, a name the table already
// holds is refused, and submitted tasks rejoin the job index. Tasks
// captured mid-staging restart as pending: their in-flight transfers died
// with the process, so the next pump re-stages them.
func (s *Scheduler) RestorePlan(plan *JobPlan, tasks []durable.PlanTaskState) (*ConcretePlan, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	cp := newConcretePlan(plan)
	for _, t := range tasks {
		a, ok := cp.assignments[t.TaskID]
		if !ok {
			return nil, fmt.Errorf("scheduler: restored plan %q has no task %q", plan.Name, t.TaskID)
		}
		a.Site = t.Site
		a.CondorID = t.CondorID
		a.State = TaskState(t.State)
		a.SubmittedAt = t.SubmittedAt
		a.Attempts = t.Attempts
		if a.State == TaskStaging {
			a.State = TaskPending
			a.Site, a.CondorID = "", 0
		}
	}
	if err := s.add(cp); err != nil {
		return nil, err
	}
	return cp, nil
}

// Pump re-examines every plan for launchable tasks — recovery calls it
// once after all plans are restored, standing in for the submissions'
// original pump calls.
func (s *Scheduler) Pump() { s.pump() }
