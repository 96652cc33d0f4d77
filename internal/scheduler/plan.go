// Package scheduler implements a Sphinx-like scheduling middleware: the
// component the paper's services submit job plans to, receive "concrete
// job plans" from, and call back into for job redirection.
//
// The paper's workflow (§4.2.1, §6.1) is reproduced faithfully:
//
//   - users submit an abstract job plan — a DAG of tasks;
//   - for each task, the scheduler "contacts the available execution
//     sites" and asks each site's runtime estimator for a prediction
//     (history maintenance is decentralized, one history per site);
//   - it then "contact[s] the MonALISA repository to get the status of
//     load at execution sites";
//   - it "select[s] a site that has the least estimated run time and
//     where the queue time for the task is a minimum", also accounting
//     for input-file transfer time;
//   - the resulting concrete job plan (tasks bound to sites) stays in
//     the scheduler's plan table, the one registry of plans, which the
//     Steering Service reads;
//   - the Steering Service sends "requests for job redirection ... to the
//     scheduler", handled here by Reschedule;
//   - a failed task stays failed until "the Backup and Recovery module
//     contacts Sphinx to allocate a new execution service" — the Steering
//     Service calls Resubmit; the scheduler never retries on its own.
//
// Site scoring has no knobs: the load weight, the tie margin of the
// fair-share tie-break and the fallback estimate are constants, and the
// estimator learns from every completed task.
//
// A task is the record a client submits: TaskPlan is gae.TaskSpec — the
// work description (CPU-seconds on a reference processor, an optional
// injected fault) plus the estimator covariates (queue, partition, nodes,
// job type, requested hours — the SDSC accounting attributes the runtime
// estimator matches on) — and FileRef is gae.FileSpec.
package scheduler

import (
	"fmt"

	"repro/pkg/gae"
)

// FileRef names an input dataset and the site currently holding it.
type FileRef = gae.FileSpec

// TaskPlan is one node of an abstract job plan.
type TaskPlan = gae.TaskSpec

// JobPlan is an abstract job: a named DAG of tasks owned by a user.
type JobPlan struct {
	Name  string
	Owner string
	Tasks []TaskPlan
}

// Validate checks IDs, dependency references, and acyclicity.
func (p *JobPlan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("scheduler: plan without name")
	}
	if len(p.Tasks) == 0 {
		return fmt.Errorf("scheduler: plan %q has no tasks", p.Name)
	}
	seen := make(map[string]bool, len(p.Tasks))
	for _, t := range p.Tasks {
		if t.ID == "" {
			return fmt.Errorf("scheduler: plan %q has a task without ID", p.Name)
		}
		if seen[t.ID] {
			return fmt.Errorf("scheduler: plan %q has duplicate task %q", p.Name, t.ID)
		}
		if t.CPUSeconds <= 0 {
			return fmt.Errorf("scheduler: task %q needs positive CPUSeconds", t.ID)
		}
		seen[t.ID] = true
	}
	for _, t := range p.Tasks {
		for _, dep := range t.DependsOn {
			if !seen[dep] {
				return fmt.Errorf("scheduler: task %q depends on unknown task %q", t.ID, dep)
			}
			if dep == t.ID {
				return fmt.Errorf("scheduler: task %q depends on itself", t.ID)
			}
		}
	}
	if _, err := p.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns the task IDs in a dependency-respecting order
// (Kahn's algorithm, FIFO among ready tasks so order is deterministic).
func (p *JobPlan) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(p.Tasks))
	dependents := make(map[string][]string)
	for _, t := range p.Tasks {
		indeg[t.ID] += 0
		for _, dep := range t.DependsOn {
			indeg[t.ID]++
			dependents[dep] = append(dependents[dep], t.ID)
		}
	}
	var ready []string
	for _, t := range p.Tasks { // plan order, not map order
		if indeg[t.ID] == 0 {
			ready = append(ready, t.ID)
		}
	}
	var order []string
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		for _, d := range dependents[id] {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if len(order) != len(p.Tasks) {
		return nil, fmt.Errorf("scheduler: plan %q has a dependency cycle", p.Name)
	}
	return order, nil
}

// Task returns the named task plan.
func (p *JobPlan) Task(id string) (TaskPlan, bool) {
	for _, t := range p.Tasks {
		if t.ID == id {
			return t, true
		}
	}
	return TaskPlan{}, false
}
