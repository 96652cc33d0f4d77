package scheduler

import (
	"fmt"
	"sort"
	"time"
)

// TaskState tracks a planned task through the scheduler.
type TaskState int

// Task states within a concrete plan.
const (
	TaskPending   TaskState = iota // waiting on dependencies
	TaskStaging                    // input transfers in flight
	TaskSubmitted                  // handed to an execution service
	TaskCompleted
	TaskFailed
)

func (s TaskState) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskStaging:
		return "staging"
	case TaskSubmitted:
		return "submitted"
	case TaskCompleted:
		return "completed"
	case TaskFailed:
		return "failed"
	}
	return fmt.Sprintf("taskstate(%d)", int(s))
}

// SiteEstimate is one site's predicted cost for a task — the quantities
// the paper's selection step weighs (estimated runtime, queue time,
// transfer time, observed load).
type SiteEstimate struct {
	Site            string
	RuntimeSeconds  float64
	QueueSeconds    float64
	TransferSeconds float64
	Load            float64
	Score           float64 // lower is better
}

// Assignment binds a planned task to an execution site and its Condor ID.
type Assignment struct {
	TaskID      string
	Site        string
	CondorID    int
	State       TaskState
	Estimates   SiteEstimate   // chosen site's estimates at decision time
	Considered  []SiteEstimate // every candidate, for explainability
	SubmittedAt time.Time
	Attempts    int
}

// ConcretePlan is the scheduler's output: "a job plan precisely describing
// the nodes where the job will be executed", which the Steering Service's
// Subscriber reads from the scheduler's plan table.
type ConcretePlan struct {
	Plan *JobPlan

	assignments map[string]*Assignment
}

func newConcretePlan(p *JobPlan) *ConcretePlan {
	cp := &ConcretePlan{Plan: p, assignments: make(map[string]*Assignment, len(p.Tasks))}
	for _, t := range p.Tasks {
		cp.assignments[t.ID] = &Assignment{TaskID: t.ID, State: TaskPending}
	}
	return cp
}

// Assignment returns a copy of the named task's current assignment.
func (cp *ConcretePlan) Assignment(taskID string) (Assignment, bool) {
	a, ok := cp.assignments[taskID]
	if !ok {
		return Assignment{}, false
	}
	return *a, true
}

// Assignments returns copies of all assignments sorted by task ID.
func (cp *ConcretePlan) Assignments() []Assignment {
	out := make([]Assignment, 0, len(cp.assignments))
	for _, a := range cp.assignments {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TaskID < out[j].TaskID })
	return out
}

// Done reports whether every task reached a terminal state, and whether
// all of them completed successfully.
func (cp *ConcretePlan) Done() (done, succeeded bool) {
	succeeded = true
	for _, a := range cp.assignments {
		switch a.State {
		case TaskCompleted:
		case TaskFailed:
			succeeded = false
		default:
			return false, false
		}
	}
	return true, succeeded
}

// hasPending reports whether any task still waits to be launched.
func (cp *ConcretePlan) hasPending() bool {
	for _, a := range cp.assignments {
		if a.State == TaskPending {
			return true
		}
	}
	return false
}

// update mutates an assignment.
func (cp *ConcretePlan) update(taskID string, fn func(*Assignment)) {
	if a, ok := cp.assignments[taskID]; ok {
		fn(a)
	}
}
