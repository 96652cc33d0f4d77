package scheduler

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/classad"
	"repro/internal/condor"
	"repro/internal/estimator"
	"repro/internal/fairshare"
	"repro/internal/monalisa"
	"repro/internal/replica"
	"repro/internal/simgrid"
	"repro/internal/telemetry"
)

// SiteServices bundles what the scheduler needs per execution site: the
// site's execution service (Condor pool) and its decentralized runtime
// estimator.
type SiteServices struct {
	Pool    *condor.Pool
	Runtime *estimator.RuntimeEstimator
}

// Site scoring's fixed parameters.
const (
	// loadWeight scales how strongly MonALISA's observed site load
	// penalizes a site's score: a fully loaded site doubles its effective
	// runtime.
	loadWeight = 1.0
	// defaultEstimate substitutes, in seconds, when a site has no usable
	// history and the task no requested-hours hint.
	defaultEstimate = 300.0
	// tieMargin is the relative score band within which site estimates
	// count as tied; when a fair-share standing is configured, ties break
	// toward the site where the plan owner has the least decayed usage,
	// spreading each tenant's load across the grid.
	tieMargin = 0.02
)

// Scheduler is the Sphinx-like middleware.
type Scheduler struct {
	grid     *simgrid.Grid
	wake     *simgrid.Wake
	repo     *monalisa.Repository // nil: score with zero load
	transfer *estimator.TransferEstimator
	replicas *replica.Catalog   // optional
	fair     *fairshare.Manager // optional

	sites map[string]*SiteServices
	// plans is the plan table: every submitted or restored plan by name,
	// the one place a plan is registered and looked up.
	plans map[string]*ConcretePlan
	// pending holds, in submission order, the plans that may still have a
	// task waiting to launch — what pump walks. A task is pending only
	// from its plan's creation (or restoration) until its one launch, so a
	// plan leaves the list for good.
	pending  []*ConcretePlan
	jobIndex map[jobKey]planTask
	events   []condor.Event

	// backlogCache memoizes backlogSeconds per site for one simulation
	// instant: site scoring walks every queued job at a site, and a plan
	// with N ready tasks would otherwise pay that walk N times per tick.
	// Entries are dropped whenever the site's queue changes at the same
	// instant — on any pool event (submission, start, completion,
	// failure), through the subscriber RegisterSite installs, and on a
	// scheduler-side remove, which a down pool does not announce — so
	// cached reads always equal what a fresh walk would return.
	backlogAt    time.Time
	backlogCache map[string]float64

	// Pre-resolved telemetry handles (nil without Config.Telemetry; nil
	// instruments no-op).
	obsWakes        *telemetry.Counter
	obsPlaceSeconds *telemetry.Histogram
}

type jobKey struct {
	pool string
	id   int
}

type planTask struct {
	cp     *ConcretePlan
	taskID string
}

// Config carries the scheduler's collaborators.
type Config struct {
	Grid *simgrid.Grid
	// Monitor, when set, supplies each site's observed load for scoring.
	Monitor  *monalisa.Repository
	Transfer *estimator.TransferEstimator
	// Replicas, when set, lets task inputs name a dataset without a
	// fixed source (FileRef.Site == ""): the scheduler resolves the
	// closest replica and registers new copies it creates.
	Replicas *replica.Catalog
	// FairShare, when set, supplies per-tenant per-site standing used as
	// the site-selection tie-break (see tieMargin).
	FairShare *fairshare.Manager
	// Telemetry, when set, records scheduler vitals: wake-ups and site-
	// selection latency.
	Telemetry *telemetry.Registry
}

// New creates a scheduler and registers it with the grid engine.
func New(cfg Config) *Scheduler {
	if cfg.Grid == nil {
		panic("scheduler: Config.Grid is required")
	}
	if cfg.Transfer == nil {
		cfg.Transfer = &estimator.TransferEstimator{Network: cfg.Grid.Network}
	}
	s := &Scheduler{
		grid:         cfg.Grid,
		repo:         cfg.Monitor,
		transfer:     cfg.Transfer,
		replicas:     cfg.Replicas,
		fair:         cfg.FairShare,
		sites:        make(map[string]*SiteServices),
		plans:        make(map[string]*ConcretePlan),
		jobIndex:     make(map[jobKey]planTask),
		backlogCache: make(map[string]float64),
	}
	if cfg.Telemetry != nil {
		s.obsWakes = cfg.Telemetry.Counter("scheduler_wakes_total")
		s.obsPlaceSeconds = cfg.Telemetry.Histogram("scheduler_place_seconds", nil)
	}
	s.wake = cfg.Grid.Engine.Register(s.onWake)
	return s
}

// RegisterSite makes an execution site schedulable.
func (s *Scheduler) RegisterSite(site string, svc *SiteServices) {
	if svc == nil || svc.Pool == nil {
		panic("scheduler: RegisterSite needs a pool")
	}
	if svc.Runtime == nil {
		svc.Runtime = estimator.NewRuntimeEstimator(estimator.NewHistory(0))
	}
	s.sites[site] = svc
	// Queue the transitions drainEvents acts on; they are processed at
	// the scheduler's next engine wakeup rather than inside the pool's
	// transition. Any event means the site's queue changed, so its cached
	// backlog is stale immediately.
	svc.Pool.Subscribe(func(e condor.Event) {
		if e.To == condor.StatusCompleted || e.To == condor.StatusFailed {
			s.events = append(s.events, e)
		}
		delete(s.backlogCache, site)
		s.wake.Request(s.grid.Engine.Now())
	})
}

// Sites returns registered site names, sorted.
func (s *Scheduler) Sites() []string {
	out := make([]string, 0, len(s.sites))
	for name := range s.sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SiteServicesFor returns the registered services for a site.
func (s *Scheduler) SiteServicesFor(site string) (*SiteServices, bool) {
	svc, ok := s.sites[site]
	return svc, ok
}

// Submit validates an abstract plan, registers its concrete plan under
// the plan's name in the plan table — a plan's one home (ROADMAP "A
// finished job has one home, and what the system holds is bounded by
// what is live") — and begins scheduling ready tasks. Of several
// submissions of one name exactly one succeeds (see add).
func (s *Scheduler) Submit(plan *JobPlan) (*ConcretePlan, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	cp := newConcretePlan(plan)
	if err := s.add(cp); err != nil {
		return nil, err
	}
	s.pump()
	return cp, nil
}

// add registers cp in the plan table and hands it to pump; its submitted
// tasks (a restored plan's) rejoin the job index, so pool completions find
// their plan again. It is the one way a plan enters the table — Submit's
// and RestorePlan's — and it refuses a name the table holds, so no name
// ever holds two plans.
func (s *Scheduler) add(cp *ConcretePlan) error {
	if len(s.sites) == 0 {
		return fmt.Errorf("scheduler: no registered sites")
	}
	name := cp.Plan.Name
	if _, dup := s.plans[name]; dup {
		return fmt.Errorf("scheduler: plan %q already submitted", name)
	}
	s.plans[name] = cp
	s.pending = append(s.pending, cp)
	for _, a := range cp.assignments {
		if a.State == TaskSubmitted && a.Site != "" {
			if svc := s.sites[a.Site]; svc != nil {
				s.jobIndex[jobKey{pool: svc.Pool.Name, id: a.CondorID}] = planTask{cp: cp, taskID: a.TaskID}
			}
		}
	}
	return nil
}

// Plan returns the registered plan by name.
func (s *Scheduler) Plan(name string) (*ConcretePlan, bool) {
	cp, ok := s.plans[name]
	return cp, ok
}

// Plans returns every registered plan, sorted by name.
func (s *Scheduler) Plans() []*ConcretePlan {
	out := make([]*ConcretePlan, 0, len(s.plans))
	for _, cp := range s.plans {
		out = append(out, cp)
	}
	slices.SortFunc(out, func(a, b *ConcretePlan) int { return strings.Compare(a.Plan.Name, b.Plan.Name) })
	return out
}

// onWake processes queued execution-service events, then launches any
// newly unblocked tasks. The scheduler is purely event-driven: it wakes
// only when a watched pool reports a transition (assignment state can
// change no other way between wakeups — direct API calls do their own
// launching), so an idle grid schedules nothing.
func (s *Scheduler) onWake(now time.Time) {
	s.obsWakes.Inc()
	s.drainEvents()
	s.pump()
}

// drainEvents applies completion/failure events to assignments.
func (s *Scheduler) drainEvents() {
	events := s.events
	s.events = nil
	for _, e := range events {
		pt, ok := s.jobIndex[jobKey{pool: e.Pool, id: e.JobID}]
		if !ok {
			continue
		}
		switch e.To {
		case condor.StatusCompleted:
			pt.cp.update(pt.taskID, func(a *Assignment) { a.State = TaskCompleted })
			s.learnFrom(pt)
			s.registerOutput(pt)
		case condor.StatusFailed:
			// Resubmission is the Steering Service's decision (its Backup
			// and Recovery module calls Resubmit), never the scheduler's.
			pt.cp.update(pt.taskID, func(a *Assignment) { a.State = TaskFailed })
		}
	}
}

// learnFrom closes the estimator's feedback loop: the actual runtime of a
// completed task becomes a history record at its execution site.
func (s *Scheduler) learnFrom(pt planTask) {
	a, ok := pt.cp.Assignment(pt.taskID)
	if !ok {
		return
	}
	task, ok := pt.cp.Plan.Task(pt.taskID)
	if !ok {
		return
	}
	svc := s.sites[a.Site]
	if svc == nil || svc.Runtime == nil || svc.Runtime.History == nil {
		return
	}
	info, err := svc.Pool.Job(a.CondorID)
	if err != nil {
		return
	}
	_ = svc.Runtime.History.Add(estimator.TaskRecord{
		Account:        pt.cp.Plan.Owner,
		Login:          pt.cp.Plan.Owner,
		Partition:      task.Partition,
		Nodes:          task.Nodes,
		JobType:        task.JobType,
		Succeeded:      true,
		ReqHours:       task.ReqHours,
		Queue:          task.Queue,
		Submitted:      info.SubmitTime,
		Started:        info.StartTime,
		Completed:      info.CompletionTime,
		RuntimeSeconds: info.WallClock.Seconds(),
	})
}

// registerOutput catalogues a completed task's output file, so downstream
// tasks (and future plans) can stage it from wherever it was produced.
func (s *Scheduler) registerOutput(pt planTask) {
	if s.replicas == nil {
		return
	}
	task, ok := pt.cp.Plan.Task(pt.taskID)
	if !ok || task.OutputFile == "" {
		return
	}
	a, ok := pt.cp.Assignment(pt.taskID)
	if !ok || a.Site == "" {
		return
	}
	size := task.OutputMB
	if site := s.grid.Site(a.Site); site != nil {
		if f, ok := site.Storage().Get(task.OutputFile); ok {
			size = f.SizeMB
		}
	}
	_ = s.replicas.Register(task.OutputFile, a.Site, size)
}

// pump launches every pending task whose dependencies completed, plan by
// plan in submission order, and forgets the plans left with none. Submit
// and onWake call it; nothing under launch re-enters it or submits a plan.
func (s *Scheduler) pump() {
	if len(s.pending) == 0 {
		return
	}
	for _, cp := range s.pending {
		for _, t := range cp.Plan.Tasks {
			a, ok := cp.Assignment(t.ID)
			if !ok || a.State != TaskPending {
				continue
			}
			if !s.depsDone(cp, t) {
				continue
			}
			if err := s.launch(cp, t, nil, 0); err != nil {
				cp.update(t.ID, func(a *Assignment) { a.State = TaskFailed })
			}
		}
	}
	// No task turns pending again, so a plan seen without one can go.
	s.pending = slices.DeleteFunc(s.pending, func(cp *ConcretePlan) bool { return !cp.hasPending() })
}

func (s *Scheduler) depsDone(cp *ConcretePlan, t TaskPlan) bool {
	for _, dep := range t.DependsOn {
		a, ok := cp.Assignment(dep)
		if !ok || a.State != TaskCompleted {
			return false
		}
	}
	return true
}

// launch selects a site, stages inputs, and submits the task. cpuDone
// carries checkpointed progress on migration.
func (s *Scheduler) launch(cp *ConcretePlan, t TaskPlan, exclude map[string]bool, cpuDone float64) error {
	best, considered, err := s.SelectSiteFor(cp.Plan.Owner, t, exclude)
	if err != nil {
		return err
	}
	cp.update(t.ID, func(a *Assignment) {
		a.Site = best.Site
		a.State = TaskStaging
		a.Estimates = best
		a.Considered = considered
		a.Attempts++
	})
	return s.stageAndSubmit(cp, t, best, cpuDone)
}

// SelectSite performs the paper's steps (a)–(e) with no owner context;
// see SelectSiteFor.
func (s *Scheduler) SelectSite(t TaskPlan, exclude map[string]bool) (SiteEstimate, []SiteEstimate, error) {
	return s.SelectSiteFor("", t, exclude)
}

// SelectSiteFor performs the paper's steps (a)–(e): per-site runtime
// estimates, queue-time estimates, MonALISA load and transfer time. When a
// fair-share standing is configured, candidates whose score lies within
// tieMargin of the best are re-ranked by the owner's decayed usage at each
// site, lowest first — planning then steers tenants toward sites they have
// used least recently (an empty owner accounts to the Anonymous tenant, as
// in the execution service). The returned slice holds every candidate for
// explainability.
func (s *Scheduler) SelectSiteFor(owner string, t TaskPlan, exclude map[string]bool) (SiteEstimate, []SiteEstimate, error) {
	names := make([]string, 0, len(s.sites))
	svcs := make([]*SiteServices, 0, len(s.sites))
	for name := range s.sites {
		if !exclude[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		svcs = append(svcs, s.sites[name])
	}
	if len(names) == 0 {
		return SiteEstimate{}, nil, fmt.Errorf("scheduler: no eligible sites for task %q", t.ID)
	}
	var t0 time.Time
	if s.obsPlaceSeconds != nil {
		t0 = time.Now()                                                        //lint:walltime telemetry: real placement latency for operator metrics, never feeds the estimate
		defer func() { s.obsPlaceSeconds.Observe(time.Since(t0).Seconds()) }() //lint:walltime telemetry: real placement latency for operator metrics, never feeds the estimate
	}
	all := make([]SiteEstimate, 0, len(names))
	for i, site := range names {
		svc := svcs[i]
		est := SiteEstimate{Site: site}
		est.RuntimeSeconds = s.runtimeEstimate(svc, t)
		est.QueueSeconds = s.backlogSeconds(site, svc)
		est.TransferSeconds = s.transferSeconds(t, site)
		if s.repo != nil {
			est.Load = s.repo.LatestValue(site, monalisa.MetricLoadAvg, 0)
		}
		est.Score = est.RuntimeSeconds*(1+loadWeight*est.Load) + est.QueueSeconds + est.TransferSeconds
		all = append(all, est)
	}
	best := all[0]
	for _, e := range all[1:] {
		if e.Score < best.Score {
			best = e
		}
	}
	if s.fair != nil {
		// Tie-break by fair-share standing: among near-tied sites, the one
		// where this tenant has the least recent usage wins. Candidates are
		// name-sorted, so equal standings keep the deterministic name order.
		// Ownerless plans account to the Anonymous tenant, matching how the
		// execution service attributes their usage.
		if owner == "" {
			owner = fairshare.Anonymous
		}
		limit := best.Score * (1 + tieMargin)
		chosen, chosenUsage := best, s.fair.SiteUsage(owner, best.Site)
		for _, e := range all {
			if e.Score > limit {
				continue
			}
			if u := s.fair.SiteUsage(owner, e.Site); u < chosenUsage {
				chosen, chosenUsage = e, u
			}
		}
		best = chosen
	}
	return best, all, nil
}

// runtimeEstimate queries a site's decentralized runtime estimator,
// falling back to the requested-hours hint and then defaultEstimate when
// the site has no similar history.
func (s *Scheduler) runtimeEstimate(svc *SiteServices, t TaskPlan) float64 {
	if est, err := svc.Runtime.Estimate(taskRecordOf(t)); err == nil && est.Seconds > 0 {
		return est.Seconds
	}
	if t.ReqHours > 0 {
		return t.ReqHours * 3600
	}
	return defaultEstimate
}

// backlogSeconds approximates a site's queue wait: the summed remaining
// estimates of every non-terminal job, divided by machine count. Results
// are cached per site for the current simulation instant — the queue only
// changes when the clock advances, so repeated scoring within one tick
// reuses the first walk.
func (s *Scheduler) backlogSeconds(site string, svc *SiteServices) float64 {
	now := s.grid.Engine.Now()
	if !s.backlogAt.Equal(now) {
		s.backlogAt = now
		clear(s.backlogCache)
	} else if v, ok := s.backlogCache[site]; ok {
		return v
	}
	v := s.backlogSecondsUncached(svc)
	s.backlogCache[site] = v
	return v
}

func (s *Scheduler) backlogSecondsUncached(svc *SiteServices) float64 {
	jobs, err := svc.Pool.LiveJobs()
	if err != nil {
		return 0
	}
	total := 0.0
	for _, j := range jobs {
		est := j.EstimatedRuntime
		if est <= 0 {
			est = defaultEstimate
		}
		rem := est - j.WallClock.Seconds()
		if rem > 0 {
			total += rem
		}
	}
	m := svc.Pool.Machines()
	if m < 1 {
		m = 1
	}
	return total / float64(m)
}

// resolveInput determines where an input file should be fetched from for
// execution at site. Inputs with an explicit Site use it; otherwise the
// replica catalog picks the closest replica. The returned source equals
// site when no transfer is needed.
func (s *Scheduler) resolveInput(f FileRef, site string) (src string, sizeMB float64, err error) {
	if f.Site != "" {
		return f.Site, f.SizeMB, nil
	}
	if s.replicas == nil {
		return "", 0, fmt.Errorf("scheduler: input %q names no site and no replica catalog is configured", f.Name)
	}
	loc, _, err := s.replicas.Best(s.transfer, f.Name, site)
	if err != nil {
		return "", 0, err
	}
	return loc.Site, loc.SizeMB, nil
}

// transferSeconds sums predicted input-staging time for files not already
// resident at the site.
func (s *Scheduler) transferSeconds(t TaskPlan, site string) float64 {
	total := 0.0
	for _, f := range t.Inputs {
		if dst := s.grid.Site(site); dst != nil {
			if _, ok := dst.Storage().Get(f.Name); ok {
				continue // replica already present
			}
		}
		src, size, err := s.resolveInput(f, site)
		if err != nil {
			// No replica reachable: heavy penalty rather than failure, so
			// another site can win.
			total += 1e6
			continue
		}
		if src == site {
			continue
		}
		te, err := s.transfer.Estimate(src, site, size)
		if err != nil {
			total += 1e6
			continue
		}
		total += te.Seconds
	}
	return total
}

func inputMB(t TaskPlan) float64 {
	total := 0.0
	for _, f := range t.Inputs {
		total += f.SizeMB
	}
	return total
}

// stageAndSubmit replicates missing inputs to the chosen site and submits
// the job once every transfer lands. Transfers for one task run as
// concurrent network flows, so inputs staged over a shared link contend
// with each other (and with everything else in flight) for bandwidth.
func (s *Scheduler) stageAndSubmit(cp *ConcretePlan, t TaskPlan, est SiteEstimate, cpuDone float64) error {
	site := est.Site
	dst := s.grid.Site(site)
	pending := 0
	aborted := false
	submit := func() {
		if err := s.submitTask(cp, t, est, cpuDone); err != nil {
			cp.update(t.ID, func(a *Assignment) { a.State = TaskFailed })
		}
	}
	done := func() {
		// A later input in the loop may have failed to stage after this
		// transfer was already in flight; the task was marked failed then,
		// and the surviving transfers must not resurrect it by submitting.
		if pending--; pending == 0 && !aborted {
			submit()
		}
	}
	for _, f := range t.Inputs {
		if dst != nil {
			if _, ok := dst.Storage().Get(f.Name); ok {
				continue
			}
		}
		srcSite, size, err := s.resolveInput(f, site)
		if err != nil {
			aborted = true
			return fmt.Errorf("scheduler: staging %q to %s: %w", f.Name, site, err)
		}
		if srcSite == site {
			continue
		}
		if src := s.grid.Site(srcSite); src != nil {
			if fl, ok := src.Storage().Get(f.Name); ok {
				size = fl.SizeMB
			}
		}
		fName, fSize := f.Name, size
		if _, err := s.grid.Network.StartTransfer(srcSite, site, size, func(time.Duration) {
			if dst != nil {
				_ = dst.Storage().Put(fName, fSize)
			}
			if s.replicas != nil {
				_ = s.replicas.Register(fName, site, fSize)
			}
			done()
		}); err != nil {
			aborted = true
			return fmt.Errorf("scheduler: staging %q to %s: %w", f.Name, site, err)
		}
		// Counted only once the transfer is actually in flight: callbacks
		// cannot fire before simulated time advances.
		pending++
	}
	if pending == 0 {
		submit()
	}
	return nil
}

// submitTask hands the task to the chosen site's execution service.
func (s *Scheduler) submitTask(cp *ConcretePlan, t TaskPlan, est SiteEstimate, cpuDone float64) error {
	svc := s.sites[est.Site]
	if svc == nil {
		return fmt.Errorf("scheduler: site %q vanished", est.Site)
	}
	ad := classad.New().
		Set(condor.AttrOwner, cp.Plan.Owner).
		Set(condor.AttrCmd, t.ID).
		Set(condor.AttrCpuSeconds, t.CPUSeconds).
		Set(condor.AttrPriority, t.Priority).
		Set(condor.AttrEstimate, est.RuntimeSeconds).
		Set(condor.AttrInputMB, inputMB(t)).
		Set(condor.AttrOutputMB, t.OutputMB).
		Set(condor.AttrCheckpoint, t.Checkpointable)
	if t.OutputFile != "" {
		ad.Set(condor.AttrOutputFile, t.OutputFile)
	}
	if t.FailAfterCPU > 0 {
		ad.Set(condor.AttrFailAfter, t.FailAfterCPU)
	}
	if t.Requirements != "" {
		if err := ad.SetExpr(condor.AttrRequirements, t.Requirements); err != nil {
			return err
		}
	}
	var id int
	var err error
	if cpuDone > 0 {
		id, err = svc.Pool.SubmitCheckpointed(ad, cpuDone)
	} else {
		id, err = svc.Pool.Submit(ad)
	}
	if err != nil {
		return fmt.Errorf("scheduler: submitting %q to %s: %w", t.ID, est.Site, err)
	}
	s.jobIndex[jobKey{pool: svc.Pool.Name, id: id}] = planTask{cp: cp, taskID: t.ID}
	cp.update(t.ID, func(a *Assignment) {
		a.CondorID = id
		a.State = TaskSubmitted
		a.SubmittedAt = s.grid.Engine.Now()
	})
	return nil
}

// Reschedule moves a submitted task to a different site — the paper's
// "job redirection" request from the Steering Service. Checkpointable
// jobs carry their completed CPU-seconds; others restart. The old job is
// removed from its original site.
func (s *Scheduler) Reschedule(cp *ConcretePlan, taskID string, exclude []string) (Assignment, error) {
	a, ok := cp.Assignment(taskID)
	if !ok {
		return Assignment{}, fmt.Errorf("scheduler: plan has no task %q", taskID)
	}
	t, ok := cp.Plan.Task(taskID)
	if !ok {
		return Assignment{}, fmt.Errorf("scheduler: plan definition lost task %q", taskID)
	}
	excl := map[string]bool{}
	for _, e := range exclude {
		excl[e] = true
	}
	if a.Site != "" {
		excl[a.Site] = true
	}
	cpuDone := 0.0
	if a.State == TaskSubmitted {
		svc := s.sites[a.Site]
		if svc != nil {
			if t.Checkpointable {
				if cpu, err := svc.Pool.Checkpoint(a.CondorID); err == nil {
					cpuDone = cpu
				}
			}
			_ = svc.Pool.Remove(a.CondorID)
			delete(s.jobIndex, jobKey{pool: svc.Pool.Name, id: a.CondorID})
			// A Remove on a down pool emits no event to drop the backlog.
			delete(s.backlogCache, a.Site)
		}
	}
	if err := s.launch(cp, t, excl, cpuDone); err != nil {
		return Assignment{}, err
	}
	na, _ := cp.Assignment(taskID)
	return na, nil
}

// Resubmit relaunches a failed task on a site other than the one that
// failed it — invoked by the Steering Service's Backup & Recovery module
// ("the Backup and Recovery module contacts Sphinx to allocate a new
// execution service; the scheduler will then resubmit the job").
func (s *Scheduler) Resubmit(cp *ConcretePlan, taskID string) (Assignment, error) {
	a, ok := cp.Assignment(taskID)
	if !ok {
		return Assignment{}, fmt.Errorf("scheduler: plan has no task %q", taskID)
	}
	t, ok := cp.Plan.Task(taskID)
	if !ok {
		return Assignment{}, fmt.Errorf("scheduler: plan definition lost task %q", taskID)
	}
	excl := map[string]bool{}
	if a.Site != "" {
		excl[a.Site] = true
	}
	if err := s.launch(cp, t, excl, 0); err != nil {
		// Fall back to any site (including the failed one) rather than
		// abandoning the task when the grid has a single site.
		if err2 := s.launch(cp, t, nil, 0); err2 != nil {
			return Assignment{}, err
		}
	}
	na, _ := cp.Assignment(taskID)
	return na, nil
}

func taskRecordOf(t TaskPlan) estimator.TaskRecord {
	return estimator.TaskRecord{
		Queue:     t.Queue,
		Partition: t.Partition,
		Nodes:     t.Nodes,
		JobType:   t.JobType,
		ReqHours:  t.ReqHours,
	}
}
