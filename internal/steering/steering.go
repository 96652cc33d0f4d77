// Package steering implements the paper's Steering Service (§4): "the
// component of the GAE architecture that allows users to interact with
// submitted jobs", providing "constant feedback of the submitted jobs to
// the users" and job control — kill, pause, resume, change priority, or
// moving the job to some other execution site.
//
// The five components of Figure 2 map onto this package:
//
//   - Subscriber: reads the concrete job plans in the scheduler's plan
//     table, where Sphinx holds each plan once and steering keeps no copy
//     (ROADMAP "A finished job has one home, and what the system holds is
//     bounded by what is live"), and finds the Execution Service of each
//     task in its assignment;
//   - Command Processor: "handles the requests of the client and requests
//     of the optimizer to perform job control e.g. kill, pause, resume,
//     move job. Requests for job redirection are sent to the scheduler";
//   - Optimizer: watches job progress through the Job Monitoring Service,
//     detects slow execution, and redirects jobs to the "Best Site" —
//     cheapest (Quota/Accounting Service) or fastest (Estimators),
//     depending on the chosen optimization preference;
//   - Backup & Recovery: polls execution services for failure, asks the
//     scheduler to reallocate on outage, notifies clients of completion
//     or failure, and collects the files a finished (or failed) job left
//     behind;
//   - Session Manager: "makes sure that the authorized users steer the
//     jobs".
package steering

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/condor"
	"repro/internal/jobmon"
	"repro/internal/quota"
	"repro/internal/scheduler"
	"repro/internal/simgrid"
	"repro/pkg/gae"
)

// The Optimizer's fixed parameters.
const (
	// slownessThreshold: a job is slow when wall-clock ÷ time-since-start
	// falls below this fraction — the job is getting less than half a CPU.
	slownessThreshold = 0.5
	// maxMoves bounds automatic moves per task, so a job slow everywhere
	// is not thrashed between sites.
	maxMoves = 1
	// minObservation is how long a job must have been running before the
	// Optimizer judges its rate — moving a job on one slow tick would
	// thrash (the paper: "it takes some time to detect the slow execution
	// rate of a job").
	minObservation = 30 * time.Second
)

// Preference selects the Optimizer's notion of "Best Site".
type Preference int

// Optimization preferences (paper: "cheap or fast execution").
const (
	PreferFast Preference = iota
	PreferCheap
)

func (p Preference) String() string {
	switch p {
	case PreferFast:
		return "fast"
	case PreferCheap:
		return "cheap"
	}
	return fmt.Sprintf("preference(%d)", int(p))
}

// ParsePreference converts "fast"/"cheap" to a Preference.
func ParsePreference(s string) (Preference, error) {
	switch s {
	case "fast":
		return PreferFast, nil
	case "cheap":
		return PreferCheap, nil
	}
	return 0, fmt.Errorf("steering: unknown preference %q (want fast or cheap)", s)
}

// Notification is a message the service queues for a job owner. Its Kind
// is "moved", "completed", "failed", "recovered" or "service-failure".
type Notification = gae.Notification

// TaskRef identifies a watched task.
type TaskRef struct {
	Plan string
	Task string
}

func (r TaskRef) String() string { return r.Plan + "/" + r.Task }

// watched is one task under steering: a task of a plan in the
// scheduler's plan table. Every task of every registered plan is watched.
type watched struct {
	cp  *scheduler.ConcretePlan
	ref TaskRef
}

func (w watched) owner() string { return w.cp.Plan.Owner }

// steered is what the service itself records about a task, beyond what
// its plan says; a task has one from the first time it needs one.
type steered struct {
	moves int
	// terminalNotified ensures completion/failure is announced once.
	terminalNotified bool
	downSince        time.Time
	downHandled      bool
}

// Config wires the Steering Service's collaborators.
type Config struct {
	Grid      *simgrid.Grid
	Scheduler *scheduler.Scheduler
	Monitor   *jobmon.Service
	Quota     *quota.Service // optional (needed for PreferCheap)
}

// Service is the Steering Service.
type Service struct {
	cfg Config

	// PollInterval is how often the Optimizer and Backup & Recovery
	// modules examine watched jobs (default 10 s of simulated time).
	PollInterval time.Duration
	// AutoSteer lets the Optimizer move slow jobs without a client
	// command. Advanced users can instead move jobs manually (the paper
	// notes "the user could have moved the job from site A to site B
	// manually as well").
	AutoSteer bool
	// Preference chooses fast (estimators) or cheap (quota) placement.
	Preference Preference

	Sessions *SessionManager

	tasks         map[TaskRef]*steered
	notifications map[string][]Notification
	execState     map[TaskRef][]simgrid.File
}

// New creates a Steering Service and registers it with the grid engine;
// it watches the plans in cfg.Scheduler's plan table.
func New(cfg Config) *Service {
	if cfg.Grid == nil || cfg.Scheduler == nil || cfg.Monitor == nil {
		panic("steering: Config needs Grid, Scheduler and Monitor")
	}
	s := &Service{
		cfg:           cfg,
		PollInterval:  10 * time.Second,
		AutoSteer:     true,
		Sessions:      NewSessionManager(),
		tasks:         make(map[TaskRef]*steered),
		notifications: make(map[string][]Notification),
		execState:     make(map[TaskRef][]simgrid.File),
	}
	cfg.Grid.Engine.NewPoller(func() time.Duration { return s.PollInterval }, s.poll)
	return s
}

// Watched returns the refs under steering, sorted; owner filters ("" for
// all).
func (s *Service) Watched(owner string) []TaskRef {
	var out []TaskRef
	for _, cp := range s.cfg.Scheduler.Plans() {
		if owner == "" || cp.Plan.Owner == owner {
			for _, t := range cp.Plan.Tasks {
				out = append(out, TaskRef{Plan: cp.Plan.Name, Task: t.ID})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// lookup resolves a watched task and its current assignment.
func (s *Service) lookup(ref TaskRef) (watched, scheduler.Assignment, error) {
	if cp, ok := s.cfg.Scheduler.Plan(ref.Plan); ok {
		if a, ok := cp.Assignment(ref.Task); ok {
			return watched{cp: cp, ref: ref}, a, nil
		}
	}
	return watched{}, scheduler.Assignment{}, fmt.Errorf("steering: no watched task %s", ref)
}

// record returns ref's record, creating it on first need.
func (s *Service) record(ref TaskRef) *steered {
	st := s.tasks[ref]
	if st == nil {
		st = &steered{}
		s.tasks[ref] = st
	}
	return st
}

// notify queues a message for an owner.
func (s *Service) notify(owner string, n Notification) {
	s.notifications[owner] = append(s.notifications[owner], n)
}

// Notifications drains (and returns) the owner's queued messages.
func (s *Service) Notifications(owner string) []Notification {
	out := s.notifications[owner]
	delete(s.notifications, owner)
	return out
}

// ExecutionState returns the files collected from a finished task's site
// — the paper's "execution state ... made available for download".
func (s *Service) ExecutionState(ref TaskRef) []simgrid.File {
	return append([]simgrid.File(nil), s.execState[ref]...)
}

// Status reports a watched task's assignment and live monitoring info.
type Status struct {
	Ref        TaskRef
	Owner      string
	Assignment scheduler.Assignment
	Job        condor.JobInfo
	HaveJob    bool
}

// TaskStatus fetches the combined steering view of a task.
func (s *Service) TaskStatus(ref TaskRef) (Status, error) {
	w, a, err := s.lookup(ref)
	if err != nil {
		return Status{}, err
	}
	st := Status{Ref: ref, Owner: w.owner(), Assignment: a}
	if a.CondorID != 0 && a.Site != "" {
		if info, err := s.cfg.Monitor.Job(a.Site, a.CondorID); err == nil {
			st.Job = info
			st.HaveJob = true
		}
	}
	return st, nil
}
