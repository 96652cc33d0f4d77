package condor

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/classad"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
	"repro/internal/telemetry"
)

// ErrPoolDown is returned by every operation while the pool's execution
// service is failed (see Fail), letting the Steering Service's Backup &
// Recovery module observe a dead execution service exactly as it would a
// crashed Condor schedd.
var ErrPoolDown = fmt.Errorf("condor: execution service unavailable")

// ErrNoSuchJob is returned for unknown job IDs.
var ErrNoSuchJob = fmt.Errorf("condor: no such job")

// Pool is one site's execution service: a schedd (queue) plus a negotiator
// (matchmaker) over the site's machines. The pool is event-driven: it
// asks the engine for a wakeup when there is work to do — a job was
// submitted, a machine was freed, a running task completed, or someone
// else changed one of its machines (a load replaced, a foreign task
// placed or removed, an ad attribute written). What the pool does to its
// own machines inside a pass wakes nobody: a placement it just made
// offers it nothing new, and a completion reaches it through the task's
// done callback, which requests the one wake that harvests it. A
// periodic (once-per-tick) wakeup survives only while state must be
// re-examined as time passes: idle jobs waiting on machines whose load is
// an opaque function of time (Requirements like `LoadAvg < 0.5` may flip
// at any tick; piecewise-constant loads wake the pool at their next
// segment boundary instead), and running jobs that need per-tick
// supervision (fault injection via AttrFailAfter, or eager fair-share
// usage accrual). A drained pool with no queue costs the simulation
// nothing.
//
// The negotiation hot path is indexed: free machines are maintained
// incrementally in per-architecture buckets as jobs start and finish
// (rather than rescanned from the full machine list every tick), each
// machine carries a pool-owned match ad whose LoadAvg is written once per
// negotiation pass (rather than cloned per candidate), and job ads are
// compiled to classad.Matchers with their static Arch/OpSys Requirements
// constraints extracted, so each idle job evaluates the full ClassAd
// match only against plausible candidates. The seed's O(idle × free)
// clone-based negotiator lives on in oracle_test.go as the specification
// this path must reproduce assignment for assignment; the golden-parity
// test runs both on identical workloads.
type Pool struct {
	Name string

	grid *simgrid.Grid
	site *simgrid.Site
	wake *simgrid.Wake

	mu       sync.Mutex
	machines []*machine
	// freeBuckets holds machines with no pool-placed task, keyed by the
	// lower-cased literal Arch of their ad (dynamicBucket for machines
	// whose Arch is not a static string). Maintained incrementally by
	// claim/release on job start/completion.
	freeBuckets map[string][]*machine
	jobs        map[int]*job
	// active lists non-terminal job IDs in submission order; harvest
	// compacts terminal entries out so per-tick passes cost O(live jobs),
	// not O(every job ever submitted).
	active      []int
	idleScratch []*job
	peerScratch []*machine
	refScratch  []fairshare.JobRef
	curScratch  []ownerCursor
	// streamScratch is the recycled negotiation stream, its slices reused
	// instead of reallocated on every wake. At most one stream is live at
	// a time: a pass and an ordering query (Job, Jobs, QueueAbove) each
	// build and drain theirs inside one critical section of p.mu, and
	// nothing a pass calls asks for the order.
	streamScratch negotiationStream
	// pickGen/pickSorted back the rank-ordered pick: per pass, large free
	// buckets are snapshotted once per rank class in preference order and
	// consumed by a cursor (see pickFromBucketLocked).
	pickGen    uint64
	pickSorted map[pickKey]*pickBucket
	nextID     int
	down       bool
	flockPeer  *Pool
	listeners  []func(Event)
	fair       fairshare.Ranker
	fairSink   fairshare.Sink
	fairFlow   fairshare.FlowSink
	fairStart  fairshare.StartObserver
	// negotiateOracle, when set, runs in place of the negotiation pass. It
	// is nil outside the golden-parity test, which installs the reference
	// negotiator of oracle_test.go here.
	negotiateOracle func(now time.Time) int

	// owners holds the incrementally maintained negotiation queues (see
	// queue.go): per-owner under a fair-share policy, one shared queue
	// under the static policy.
	owners map[string]*ownerQueue

	// idleCount / liveCount / superviseCount summarize the queue so the
	// wake-up policy never walks it: idle jobs awaiting a match,
	// non-terminal jobs (for lazy active-list compaction), and running
	// jobs that need per-tick supervision (fault injection or eager
	// fair-share accrual). When superviseCount is zero the pool wakes
	// only on events — submit, machine freed, ad mutated, node changed,
	// completion deadline — plus the analytic load-segment boundary
	// computed by the last pass (loadWakeAt).
	idleCount      int
	liveCount      int
	superviseCount int
	loadWakeAt     time.Time

	// doneQ collects jobs whose completion deadline fired since the last
	// harvest; with no supervised jobs, harvest promotes exactly these
	// instead of walking every active job.
	doneQ []*job

	// nodeJob maps a node to the flow-accounted job running on it, so
	// node-change notifications can re-rate or demote the flow.
	nodeJob map[*simgrid.Node]*job

	// relMu guards pendingRel, the cross-pool release queue. A flocked
	// job's terminal transition can run on an arbitrary API goroutine
	// that already holds its own pool's lock, so it must not take the
	// machine owner's main lock (AB-BA inversion against engine-side peer
	// negotiation, which locks pools in the opposite order). Releases of
	// foreign machines enqueue here under this leaf lock instead; the
	// owner folds the queue back into its free buckets at the next tick
	// or peer snapshot — the same point a physical rescan would first
	// observe the machine idle.
	relMu      sync.Mutex
	pendingRel []*machine
	// dirtyNodes (relMu-guarded, like pendingRel) collects nodes whose
	// observer fired since the last pass — someone other than this pool's
	// own pass changed their load or task set; the pool folds them in at
	// the next wake to re-rate usage flows. A node may be listed twice
	// (folding is idempotent); dirtyScratch (p.mu-guarded) is the drained
	// buffer, swapped back in so a drain allocates nothing.
	// flockedFrom lists pools flocking into this one; they are woken
	// whenever this pool's machine picture changes, since their
	// negotiation reads it. Guarded by relMu because the notification
	// paths run under the notifying pool's main lock.
	dirtyNodes   []*simgrid.Node
	dirtyScratch []*simgrid.Node
	flockedFrom  []*Pool

	// Pre-resolved telemetry handles (nil without SetTelemetry; nil
	// instruments no-op).
	obsWakes       *telemetry.Counter
	obsIdleWakes   *telemetry.Counter
	obsPasses      *telemetry.Counter
	obsMatches     *telemetry.Counter
	obsViewBuilds  *telemetry.Counter
	obsScans       *telemetry.Counter
	obsPassSeconds *telemetry.Histogram
}

// SetTelemetry registers the pool's negotiation metrics in reg, labeled
// by site: wake-ups, idle wake-ups (nothing harvested, nothing matched,
// no flow re-rated, no supervised job and no load boundary to wait for —
// a wake nothing needed), negotiation passes (those with at least one
// idle job), matches started, wall-clock pass duration, and what the
// passes' picks cost: ordered views built (one sort of a free bucket
// each) and exhaustive bucket scans (one Match + Rank per free machine
// each).
func (p *Pool) SetTelemetry(reg *telemetry.Registry) {
	p.obsWakes = reg.LabeledCounter("pool_wakes_total", "site", p.Name)
	p.obsIdleWakes = reg.LabeledCounter("pool_idle_wakes_total", "site", p.Name)
	p.obsPasses = reg.LabeledCounter("negotiation_passes_total", "site", p.Name)
	p.obsMatches = reg.LabeledCounter("negotiation_matches_total", "site", p.Name)
	p.obsViewBuilds = reg.LabeledCounter("negotiation_view_builds_total", "site", p.Name)
	p.obsScans = reg.LabeledCounter("negotiation_exhaustive_scans_total", "site", p.Name)
	p.obsPassSeconds = reg.LabeledHistogram("negotiation_pass_seconds", "site", p.Name, nil)
}

// dynamicBucket indexes machines whose Arch is not a literal string
// (i.e. an expression, whose value may depend on the candidate job);
// they are scanned for every job regardless of its constraint.
const dynamicBucket = "\x00dynamic"

type machine struct {
	node  *simgrid.Node
	owner *Pool
	ad    *classad.Ad // caller-supplied ad, kept free of negotiation scratch
	// matchAd is the pool-owned snapshot offered to the matchmaker; its
	// LoadAvg is refreshed once per machine per negotiation pass instead
	// of cloning the ad for every (job, machine) candidate. adVersion
	// records the source ad's mutation counter at snapshot time: callers
	// may keep updating the ad they registered (the seed re-read it every
	// pick), so the snapshot and index keys resync when it changes.
	matchAd   *classad.Ad
	matcher   *classad.Matcher
	adVersion uint64
	// loadAvg mirrors the LoadAvg last written into matchAd so unchanged
	// values skip the ad mutation on every negotiation pass.
	loadAvg    float64
	loadAvgSet bool
	archKey    string // lowered Arch value, or dynamicBucket
	opsKey     string // lowered OpSys value when opsKnown
	opsKnown   bool
	// freeIdx is the machine's position in its owner's free bucket, -1
	// while claimed by a job.
	freeIdx int
	// skipFor excludes the machine from the named pool's current
	// negotiation pass: set when an externally placed task occupies the
	// node, or when a checkpoint-complete job consumed the offer without
	// placing work.
	skipFor *Pool
}

// NewPool creates an execution service for site, registered with the
// grid's engine.
func NewPool(name string, grid *simgrid.Grid, site *simgrid.Site) *Pool {
	p := &Pool{
		Name:        name,
		grid:        grid,
		site:        site,
		jobs:        make(map[int]*job),
		freeBuckets: make(map[string][]*machine),
		owners:      make(map[string]*ownerQueue),
		nodeJob:     make(map[*simgrid.Node]*job),
	}
	p.wake = grid.Engine.Register(p.onWake)
	return p
}

// requestWake asks for a negotiation/harvest pass at the earliest legal
// boundary: the current one if this pool's turn is still ahead in the
// boundary being processed (e.g. a completion deadline fired on a node
// registered before the pool), the next one otherwise.
func (p *Pool) requestWake() {
	p.wake.Request(p.grid.Engine.Now())
}

// Site returns the site this pool executes on.
func (p *Pool) Site() *simgrid.Site { return p.site }

// AddMachine advertises a node to the negotiator. The machine ad is
// augmented with standard attributes (Machine, Mips); a nil ad is allowed.
func (p *Pool) AddMachine(node *simgrid.Node, ad *classad.Ad) {
	if ad == nil {
		ad = classad.New()
	}
	ad.Set("Machine", node.Name)
	ad.Set("Mips", node.Mips)
	if !ad.Has("Arch") {
		ad.Set("Arch", "x86")
	}
	if !ad.Has("OpSys") {
		ad.Set("OpSys", "LINUX")
	}
	m := &machine{node: node, owner: p, ad: ad, freeIdx: -1}
	m.snapshotAd()
	// Subscriptions replace per-tick polling: an ad attribute change or a
	// node-level change made by anyone but this pool's own pass (load
	// replaced, foreign task placed or completed, any task removed) marks
	// the node dirty and wakes the negotiator — this pool's and any pool
	// flocking into it. The hook is registered after the standard
	// attributes above so the pool's own writes don't self-wake. One
	// observer per node: a node advertised to several pools keeps only
	// the last registration.
	ad.OnMutate(func() { p.machineChanged(nil) })
	node.SetObserver(func() { p.machineChanged(node) })
	p.mu.Lock()
	defer p.mu.Unlock()
	p.machines = append(p.machines, m)
	p.addFreeLocked(m)
	p.requestWake()
	p.wakeFlockedFrom()
}

// machineChanged records a machine-side change and wakes every
// negotiator that reads this pool's machines. It must not take p.mu:
// node observers fire from paths already holding it (detach, harvest).
func (p *Pool) machineChanged(n *simgrid.Node) {
	if n != nil {
		p.relMu.Lock()
		p.dirtyNodes = append(p.dirtyNodes, n)
		p.relMu.Unlock()
	}
	p.requestWake()
	p.wakeFlockedFrom()
}

// wakeFlockedFrom wakes the pools flocking into this one.
func (p *Pool) wakeFlockedFrom() {
	p.relMu.Lock()
	ff := p.flockedFrom
	p.relMu.Unlock()
	for _, q := range ff {
		q.requestWake()
	}
}

// snapshotAd (re)builds the machine's match ad, compiled matcher, and
// index keys from the caller's ad.
func (m *machine) snapshotAd() {
	m.adVersion = m.ad.Version()
	m.matchAd = m.ad.Clone()
	m.matcher = classad.NewMatcher(m.matchAd)
	m.loadAvgSet = false
	// Only literal attributes are safe index keys: an expression-valued
	// Arch/OpSys can evaluate differently per candidate job, so such
	// machines take the catch-all bucket / skip the OpSys pre-filter.
	m.archKey = dynamicBucket
	if s, ok := m.matchAd.LiteralString("Arch"); ok {
		m.archKey = strings.ToLower(s)
	}
	m.opsKey, m.opsKnown = "", false
	if s, ok := m.matchAd.LiteralString("OpSys"); ok {
		m.opsKey, m.opsKnown = strings.ToLower(s), true
	}
}

// resyncMachineLocked refreshes a machine whose caller-side ad mutated
// since the last snapshot, rebucketing it if its Arch changed.
func (p *Pool) resyncMachineLocked(m *machine) {
	wasFree := m.freeIdx >= 0
	if wasFree {
		p.removeFreeLocked(m)
	}
	m.snapshotAd()
	if wasFree {
		p.addFreeLocked(m)
	}
}

// Machines returns the advertised machine count.
func (p *Pool) Machines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.machines)
}

// EnableFlocking lets idle jobs overflow to peer when no local machine
// matches. Condor flocking submits to a remote pool while preserving the
// job's identity; here the job simply also negotiates against the peer's
// machines.
func (p *Pool) EnableFlocking(peer *Pool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flockPeer = peer
	if peer != nil {
		peer.relMu.Lock()
		peer.flockedFrom = append(peer.flockedFrom, p)
		peer.relMu.Unlock()
	}
	p.requestWake()
}

// SetFairShare installs a fair-share policy: negotiation (and the
// reported queue position) orders idle jobs by fairshare.LessKeys over
// pol's keys instead of static priority with FIFO, making the queue
// time-aware. If pol also implements
// fairshare.Sink — as *fairshare.Manager does — the CPU-seconds each job
// executed here are recorded as owner usage at this pool's site when the
// job reaches a terminal state, closing the accounting loop the paper's
// stack lacks. A nil pol restores the static ordering.
func (p *Pool) SetFairShare(pol fairshare.Ranker) {
	if fairshare.IsNil(pol) {
		pol = nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Settle usage flows opened against the outgoing sink before the
	// policy swap: each closes with its measured total, so the old sink's
	// books end exactly where the eager path's would.
	for _, id := range p.active {
		j := p.jobs[id]
		if j.flow != nil {
			p.closeFlowLocked(j)
		}
	}
	rekey := (pol == nil) != (p.fair == nil)
	p.fair = pol
	p.fairSink, _ = pol.(fairshare.Sink)
	p.fairFlow, _ = pol.(fairshare.FlowSink)
	p.fairStart, _ = pol.(fairshare.StartObserver)
	if rekey {
		p.rebuildQueuesLocked()
	}
	// Re-derive supervision for running jobs under the new policy:
	// existing jobs accrue eagerly (flows reopen only at start time).
	p.superviseCount = 0
	for _, id := range p.active {
		j := p.jobs[id]
		j.supervised = j.failAfter > 0 || p.fairSink != nil
		if j.supervised && j.status == StatusRunning {
			p.superviseCount++
		}
	}
	if p.fairSink != nil {
		p.requestWake() // running jobs now need per-tick usage accrual
	}
}

// Subscribe registers a listener for job state transitions. Listeners run
// synchronously on the simulation goroutine; they must not block.
func (p *Pool) Subscribe(fn func(Event)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.listeners = append(p.listeners, fn)
}

// Fail marks the execution service down: all API calls error and running
// tasks stop progressing (their nodes keep ticking, but harvest pauses).
func (p *Pool) Fail() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = true
	for _, j := range p.jobs {
		if j.status == StatusRunning && j.task != nil {
			j.task.Suspend()
			if j.flow != nil {
				j.flow.SetRate(0) // tasks stop progressing while down
			}
		}
	}
}

// Recover brings a failed service back; suspended-by-failure jobs resume
// and the pool re-arms its engine wakeup.
func (p *Pool) Recover() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = false
	for _, j := range p.jobs {
		if j.status == StatusRunning && j.task != nil {
			j.task.Resume()
			if j.flow != nil {
				j.flow.SetRate(j.flowRate)
			}
		}
	}
	p.requestWake()
	p.wakeFlockedFrom() // peers can match against this pool again
}

// Healthy reports whether the execution service answers requests — the
// probe the Backup & Recovery module polls.
func (p *Pool) Healthy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.down
}

// Submit enqueues a job described by ad. The ad must carry AttrCpuSeconds
// (the ground-truth work) and should carry AttrOwner. The returned ID is
// the pool-local "Condor ID".
func (p *Pool) Submit(ad *classad.Ad) (int, error) {
	if ad == nil {
		return 0, fmt.Errorf("condor: nil job ad")
	}
	need := ad.Float(AttrCpuSeconds, 0)
	if need <= 0 {
		return 0, fmt.Errorf("condor: job ad missing positive %s", AttrCpuSeconds)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return 0, ErrPoolDown
	}
	p.nextID++
	id := p.nextID
	j := p.newJob(id, ad.Clone(), p.grid.Engine.Now())
	p.jobs[id] = j
	p.active = append(p.active, id)
	p.liveCount++
	p.idleCount++
	p.enqueueIdleLocked(j)
	p.emitLocked(j, 0, StatusIdle)
	p.requestWake()
	return id, nil
}

// SubmitCheckpointed enqueues a job that already completed cpuDone seconds
// of work elsewhere — the flocking/steering migration path for
// checkpointable jobs.
func (p *Pool) SubmitCheckpointed(ad *classad.Ad, cpuDone float64) (int, error) {
	if cpuDone < 0 {
		return 0, fmt.Errorf("condor: negative checkpoint %v", cpuDone)
	}
	id, err := p.Submit(ad)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.jobs[id].ad.Bool(AttrCheckpoint, false) {
		// Non-checkpointable jobs restart from zero.
		return id, nil
	}
	p.jobs[id].cpuBase = cpuDone
	return id, nil
}

// Job returns a snapshot of the identified job.
func (p *Pool) Job(id int) (JobInfo, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return JobInfo{}, ErrPoolDown
	}
	j, ok := p.jobs[id]
	if !ok {
		return JobInfo{}, fmt.Errorf("%w: %d", ErrNoSuchJob, id)
	}
	return p.snapshotLocked(j), nil
}

// Jobs returns snapshots of every job, ordered by ID.
func (p *Pool) Jobs() ([]JobInfo, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return nil, ErrPoolDown
	}
	var pos map[int]int
	if p.idleCount > 0 {
		pos = p.idlePositionsLocked()
	}
	out := make([]JobInfo, 0, len(p.jobs))
	p.eachJobLocked(func(j *job) {
		out = append(out, p.snapshotPosLocked(j, pos))
	})
	return out, nil
}

// eachJobLocked visits every job the pool ever held in ID order. IDs are
// handed out densely from 1, so counting to nextID is the sorted walk.
func (p *Pool) eachJobLocked(visit func(*job)) {
	for id := 1; id <= p.nextID; id++ {
		if j, ok := p.jobs[id]; ok {
			visit(j)
		}
	}
}

// LiveJobs returns snapshots of the non-terminal jobs in submission order,
// without queue positions: a walk of the active list, whose cost follows
// the jobs now in the pool rather than every job it ever held, for callers
// that total over the queue.
func (p *Pool) LiveJobs() ([]JobInfo, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return nil, ErrPoolDown
	}
	out := make([]JobInfo, 0, p.liveCount)
	for _, id := range p.active {
		if j := p.jobs[id]; !j.status.Terminal() {
			out = append(out, p.snapshotPosLocked(j, nil))
		}
	}
	return out, nil
}

// QueueAbove returns the running and idle jobs scheduled ahead of job id
// — the queue-time estimator's step (a)/(b) input. Under the default
// static policy that is every non-terminal job with strictly greater
// priority; when a fair-share policy is installed, it is every running
// job plus the idle jobs the policy orders before this one, so queue-time
// estimates track the order the negotiator will actually use.
func (p *Pool) QueueAbove(id int) ([]JobInfo, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return nil, ErrPoolDown
	}
	j, ok := p.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchJob, id)
	}
	var out []JobInfo
	if p.fair != nil {
		// Running and suspended jobs both hold machines the target must
		// wait on (a suspended task keeps its node until resumed); they
		// carry no queue position, so the ordering pass is only paid when
		// the target itself is idle.
		var pos map[int]int
		for _, oid := range p.active {
			o := p.jobs[oid]
			if o.id != id && (o.status == StatusRunning || o.status == StatusSuspended) {
				out = append(out, p.snapshotPosLocked(o, pos))
			}
		}
		if j.status == StatusIdle {
			ordered := p.idleOrderedLocked()
			pos = positionsOf(ordered)
			for _, o := range ordered {
				if o.id == id {
					break
				}
				out = append(out, p.snapshotPosLocked(o, pos))
			}
		}
		return out, nil
	}
	pos := p.idlePositionsLocked()
	for _, oid := range p.active {
		o := p.jobs[oid]
		if o.id == id || o.status.Terminal() {
			continue
		}
		if o.priority > j.priority {
			out = append(out, p.snapshotPosLocked(o, pos))
		}
	}
	return out, nil
}

// Suspend pauses a running job (paper: "pause").
func (p *Pool) Suspend(id int) error {
	return p.transition(id, func(j *job) error {
		if j.status != StatusRunning {
			return fmt.Errorf("condor: job %d is %v, cannot suspend", id, j.status)
		}
		j.task.Suspend()
		if j.flow != nil {
			j.flow.SetRate(0) // a paused task consumes nothing
		}
		p.setStatusLocked(j, StatusSuspended)
		return nil
	})
}

// Resume continues a suspended job.
func (p *Pool) Resume(id int) error {
	return p.transition(id, func(j *job) error {
		if j.status != StatusSuspended {
			return fmt.Errorf("condor: job %d is %v, cannot resume", id, j.status)
		}
		j.task.Resume()
		if j.flow != nil {
			j.flow.SetRate(j.flowRate)
		}
		p.setStatusLocked(j, StatusRunning)
		if j.task.State() == simgrid.TaskDone {
			// The completion deadline fired while suspended; re-enter the
			// harvest queue so the fast path still promotes it.
			p.doneQ = append(p.doneQ, j)
		}
		p.requestWake() // the job may need per-tick supervision again
		return nil
	})
}

// Remove kills a job (paper: "kill"); idle jobs leave the queue, running
// jobs are torn down.
func (p *Pool) Remove(id int) error {
	return p.transition(id, func(j *job) error {
		if j.status.Terminal() {
			return fmt.Errorf("condor: job %d already %v", id, j.status)
		}
		p.detachLocked(j)
		j.completionTime = p.grid.Engine.Now()
		p.setStatusLocked(j, StatusRemoved)
		return nil
	})
}

// SetPriority changes a pending or running job's priority (paper: "change
// priority of the job"). Queue order adjusts on the next negotiation.
func (p *Pool) SetPriority(id, prio int) error {
	return p.transition(id, func(j *job) error {
		if j.status.Terminal() {
			return fmt.Errorf("condor: job %d already %v", id, j.status)
		}
		j.priority = prio
		j.ad.Set(AttrPriority, prio)
		if j.status == StatusIdle {
			p.refileIdleLocked(j)
		}
		p.requestWake() // queue order changed; re-negotiate next boundary
		return nil
	})
}

// Checkpoint records and returns the job's completed CPU-seconds; a
// subsequent SubmitCheckpointed elsewhere resumes from this point.
func (p *Pool) Checkpoint(id int) (float64, error) {
	var cpu float64
	err := p.transition(id, func(j *job) error {
		cpu = p.cpuSecondsLocked(j)
		j.ckptCPU = cpu
		return nil
	})
	return cpu, err
}

// WallClock returns the job's accumulated execution time — Condor's
// "wall-clock time the job has accumulated while running", the Figure 7
// progress proxy.
func (p *Pool) WallClock(id int) (time.Duration, error) {
	info, err := p.Job(id)
	if err != nil {
		return 0, err
	}
	return info.WallClock, nil
}

// transition runs fn on the identified job under the pool lock.
func (p *Pool) transition(id int, fn func(*job) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return ErrPoolDown
	}
	j, ok := p.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchJob, id)
	}
	return fn(j)
}

// onWake folds queued machine/node signals in, harvests task
// completions and faults, runs one negotiation cycle, and re-arms. A
// failed (down) pool does not re-arm: Recover requests a fresh wakeup.
func (p *Pool) onWake(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.drainReleasesLocked()
	if p.down {
		return
	}
	p.obsWakes.Inc()
	supervising := p.superviseCount > 0
	did := p.drainDirtyLocked()
	did += p.harvestLocked(now)
	did += p.negotiateLocked(now)
	if did == 0 && !supervising && p.loadWakeAt.IsZero() {
		p.obsIdleWakes.Inc()
	}
	p.rearmLocked(now)
}

// rearmLocked schedules the pool's next wakeup. The per-tick drumbeat
// survives only while a running job needs per-tick supervision.
// Otherwise the pool sleeps until an event wakes it — with one analytic
// exception: when idle jobs went unmatched and some free machine's
// advertised load will change at a known instant (a segment boundary, or
// the next tick under an opaque load), the pass recorded that instant in
// loadWakeAt.
func (p *Pool) rearmLocked(now time.Time) {
	if p.superviseCount > 0 {
		p.wake.Request(now.Add(p.grid.Engine.Tick()))
		return
	}
	if !p.loadWakeAt.IsZero() {
		p.wake.Request(p.loadWakeAt)
	}
}

// harvestLocked promotes finished tasks to Completed and applies fault
// injection. While any running job is supervised (fault injection, or
// eager fair-share accrual) it is a walk over every active
// job, accruing usage tick by tick so a tenant holding machines with
// long jobs is penalized while it runs — not only when the job finally
// completes (Condor's periodic usage update does the same). With no
// supervised jobs the pass touches exactly the jobs whose completion
// deadlines fired (doneQ), in ID order — the order the full walk
// promotes them in — and the active list compacts lazily. A done
// task needs no Remove: the node dropped it the moment it completed.
// Returns the number of jobs taken to a terminal state.
func (p *Pool) harvestLocked(now time.Time) int {
	ended := 0
	if p.superviseCount > 0 {
		p.doneQ = p.doneQ[:0]
		kept := p.active[:0]
		for _, id := range p.active {
			j := p.jobs[id]
			if j.status.Terminal() {
				continue
			}
			kept = append(kept, id)
			if j.status != StatusRunning || j.task == nil {
				continue
			}
			p.accrueUsageLocked(j)
			if fail := j.failAfter; fail > 0 && p.cpuSecondsLocked(j) >= fail {
				j.task.Kill()
				p.detachLocked(j)
				j.completionTime = now
				p.setStatusLocked(j, StatusFailed)
				ended++
				continue
			}
			if j.task.State() == simgrid.TaskDone {
				p.completeLocked(j, now)
				ended++
			}
		}
		p.active = kept
		return ended
	}
	if len(p.doneQ) > 0 {
		if len(p.doneQ) > 1 {
			slices.SortFunc(p.doneQ, func(a, b *job) int { return cmp.Compare(a.id, b.id) })
		}
		for _, j := range p.doneQ {
			if j.status != StatusRunning || j.task == nil || j.task.State() != simgrid.TaskDone {
				continue
			}
			p.completeLocked(j, now)
			ended++
		}
		p.doneQ = p.doneQ[:0]
	}
	if len(p.active) > 128 && len(p.active) > 2*p.liveCount {
		kept := p.active[:0]
		for _, id := range p.active {
			if !p.jobs[id].status.Terminal() {
				kept = append(kept, id)
			}
		}
		p.active = kept
	}
	return ended
}

// completeLocked promotes a running job whose task finished.
func (p *Pool) completeLocked(j *job, now time.Time) {
	p.releaseClaimLocked(j) // a no-op once taskDone has run
	j.completionTime = now
	p.setStatusLocked(j, StatusCompleted)
	p.produceOutputLocked(j)
}

// drainDirtyLocked folds queued node-change notifications in: each
// dirty node carrying a flow-accounted job gets its analytic rate
// re-derived — adjusted in place when the node still qualifies, or the
// flow is closed and the job demoted to eager supervision when it no
// longer does (a second task landed, or the load is no longer a
// constant segment). Returns the number of flows looked at.
func (p *Pool) drainDirtyLocked() int {
	p.relMu.Lock()
	dirty := p.dirtyNodes
	p.dirtyNodes = p.dirtyScratch[:0]
	p.relMu.Unlock()
	p.dirtyScratch = dirty
	flows := 0
	for _, node := range dirty {
		j := p.nodeJob[node]
		if j == nil || j.flow == nil {
			continue
		}
		flows++
		if j.task != nil && j.task.State() == simgrid.TaskDone {
			// Completing at this very wake (the completion is what marked
			// the node dirty): the harvest's terminal settle closes the
			// flow exactly. Demoting to eager supervision here would force
			// a full active-list walk for every completion.
			continue
		}
		rate, ok := p.flowRateFor(node)
		if !ok {
			p.closeFlowLocked(j)
			j.supervised = j.failAfter > 0 || p.fairSink != nil
			if j.supervised && j.status == StatusRunning {
				p.superviseCount++
			}
			continue
		}
		if rate != j.flowRate {
			j.flowRate = rate
			if j.status == StatusRunning {
				j.flow.SetRate(rate)
			}
		}
	}
	return flows
}

// produceOutputLocked materializes the job's declared output file in the
// site's storage element, so Backup & Recovery can fetch "local files that
// were produced".
func (p *Pool) produceOutputLocked(j *job) {
	if j.outputFile == "" {
		return
	}
	_ = p.site.Storage().Put(j.outputFile, j.outputMB)
}

// jobRef is the fair-share policy's view of a queued job.
func jobRef(j *job) fairshare.JobRef {
	return fairshare.JobRef{
		Owner:          j.owner,
		StaticPriority: j.priority,
		Submitted:      j.submitTime,
		Seq:            j.id,
	}
}

// negotiateLocked matches idle jobs to free machines in negotiation
// order; each job picks its highest-Rank matching machine. Idle jobs
// arrive from the incrementally maintained queues (see queue.go), and
// the walk stops the moment no offer remains — O(matched) plus the
// stream's small per-owner bookkeeping, instead of O(idle log idle) every
// pass. Offers are counted up front: local free machines not excluded for
// this pass, plus the flocking peer's snapshot. Jobs that match nothing
// consume no offer and the stream simply moves on, so a queue full of
// unmatchable jobs still drains passes quickly once offers run out. The
// pass records, in loadWakeAt, the earliest instant a free machine's
// advertised load is known to change — the only time-driven reason to
// negotiate again before the next event. Returns the number of jobs
// matched.
func (p *Pool) negotiateLocked(now time.Time) int {
	p.loadWakeAt = time.Time{}
	if p.negotiateOracle != nil {
		return p.negotiateOracle(now)
	}
	if p.idleCount == 0 {
		return 0
	}
	var t0 time.Time
	if p.obsPasses != nil {
		t0 = time.Now() //lint:walltime telemetry: real pass latency for operator metrics, never read back into sim state
	}
	st := p.refreshFreeLocked(now)
	var peerFree []*machine
	if p.flockPeer != nil {
		var pst freeStats
		peerFree, pst = p.flockPeer.snapshotFreeFor(now, p.peerScratch[:0])
		p.peerScratch = peerFree
		st.merge(pst)
	}
	matched := 0
	if st.avail > 0 || len(peerFree) > 0 {
		stream := p.negotiationStreamLocked(now)
		for st.avail > 0 || len(peerFree) > 0 {
			j := stream.next()
			if j == nil {
				break
			}
			var m *machine
			if st.avail > 0 {
				m = p.pickIndexedLocked(j)
			}
			if m != nil {
				st.avail--
			} else if len(peerFree) > 0 {
				m, _ = p.bestCandidate(j, peerFree, nil, 0)
				peerFree = removeMachine(peerFree, m)
			}
			if m == nil {
				continue
			}
			p.startLocked(j, m, now)
			matched++
		}
	}
	if p.idleCount > 0 {
		// Unmatched idle jobs remain: wake when a free machine's load is
		// next known to change. Opaque (non-piecewise) loads force a
		// per-tick cadence; piecewise ones wake at the earliest
		// segment boundary; with no free machines at all, only events can
		// change the picture and no timer is needed.
		if st.opaque {
			p.loadWakeAt = now.Add(p.grid.Engine.Tick())
		} else {
			p.loadWakeAt = st.until
		}
	}
	if p.obsPasses != nil {
		p.obsPasses.Inc()
		p.obsMatches.Add(int64(matched))
		p.obsPassSeconds.Observe(time.Since(t0).Seconds()) //lint:walltime telemetry: real pass latency for operator metrics, never read back into sim state
	}
	return matched
}

// freeStats summarizes one pre-pass walk of the free machines: how many
// offers the pass holds, and when their advertised loads next change —
// the earliest piecewise segment boundary (until), or "unknowable
// analytically" (opaque) when any free machine's load is not piecewise.
type freeStats struct {
	avail  int
	opaque bool
	until  time.Time
}

func (st *freeStats) observe(until time.Time, piecewise bool) {
	st.avail++
	if !piecewise {
		st.opaque = true
		return
	}
	if !until.IsZero() && (st.until.IsZero() || until.Before(st.until)) {
		st.until = until
	}
}

func (st *freeStats) merge(o freeStats) {
	st.opaque = st.opaque || o.opaque
	if !o.until.IsZero() && (st.until.IsZero() || o.until.Before(st.until)) {
		st.until = o.until
	}
}

// refreshFreeLocked prepares the pool's free machines for one negotiation
// pass: queued cross-pool releases fold back in, machines whose caller ad
// mutated resync, each machine's LoadAvg is written into its match ad
// exactly once, and machines occupied by externally placed tasks (the
// pool's free set only tracks its own placements) are excluded for this
// pass.
func (p *Pool) refreshFreeLocked(now time.Time) freeStats {
	// New pass: ordered views rebuild lazily; those the last pass had no
	// use for go, so the map holds only the rank classes now queued.
	for k, pb := range p.pickSorted {
		if pb.gen != p.pickGen {
			delete(p.pickSorted, k)
		}
	}
	p.pickGen++
	var st freeStats
	p.visitFreeLocked(func(m *machine) {
		if m.node.TaskCount() > 0 {
			m.skipFor = p
			return
		}
		m.skipFor = nil
		v, until, piecewise := m.node.LoadSegment(now)
		m.setLoadAvg(v)
		st.observe(until, piecewise)
	})
	return st
}

// setLoadAvg writes the machine's current load into its match ad, skipping
// the ad mutation (a map write plus a version bump) when the value hasn't
// changed since the last pass — the overwhelmingly common case for idle and
// piecewise-constant machines at scale.
func (m *machine) setLoadAvg(v float64) {
	if m.loadAvgSet && m.loadAvg == v {
		return
	}
	m.matchAd.Set("LoadAvg", v)
	m.loadAvg, m.loadAvgSet = v, true
}

// snapshotFreeFor lists this pool's free machines for a flocking peer's
// negotiation pass, refreshing each match ad's LoadAvg under this pool's
// lock. The caller supplies (and re-owns) the scratch buffer. Safe against
// deadlock: cross-pool calls happen only on the engine goroutine, where
// ticks are serialized.
func (p *Pool) snapshotFreeFor(now time.Time, buf []*machine) ([]*machine, freeStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var st freeStats
	if p.down {
		return buf, st
	}
	p.visitFreeLocked(func(m *machine) {
		if m.node.TaskCount() > 0 {
			return
		}
		m.skipFor = nil
		v, until, piecewise := m.node.LoadSegment(now)
		m.setLoadAvg(v)
		st.observe(until, piecewise)
		buf = append(buf, m)
	})
	return buf, st
}

// visitFreeLocked is the single pre-pass walk both negotiation views
// share: queued cross-pool releases fold in, machines whose caller ad
// mutated resync (possibly moving buckets, hence the deferral past the
// iteration), and visit runs once per free machine.
func (p *Pool) visitFreeLocked(visit func(*machine)) {
	p.drainReleasesLocked()
	var stale []*machine
	for _, b := range p.freeBuckets {
		for _, m := range b {
			if m.ad.Version() != m.adVersion {
				stale = append(stale, m)
				continue
			}
			visit(m)
		}
	}
	for _, m := range stale {
		p.resyncMachineLocked(m)
		visit(m)
	}
}

// pickKey names one ordered view: an arch bucket as one rank class (see
// classad.Matcher.RankClass) orders it.
type pickKey struct{ arch, rank string }

// pickBucket is one view's per-pass pick state: the bucket's free machines
// by (rank descending, node name ascending) with a cursor that permanently
// skips machines claimed (or pass-excluded) earlier in the same pass.
// Rebuilt lazily once per pass; exhaustive marks a pass in which some
// machine's rank is not a function of the machine alone.
type pickBucket struct {
	gen        uint64
	sorted     []pickEntry
	cur        int
	exhaustive bool
}

type pickEntry struct {
	m    *machine
	rank float64
}

// pickIndexedLocked returns j's best matching local machine. Jobs whose
// Requirements pin Arch scan only that bucket (plus machines with
// non-literal Arch); unconstrained jobs scan every bucket. The winner is
// the highest job-Rank match, ties broken by machine name, a total order
// that makes the result independent of bucket iteration order.
func (p *Pool) pickIndexedLocked(j *job) *machine {
	if j.reqArch != "" {
		best, bestRank := p.pickFromBucketLocked(j, j.reqArch, nil, 0)
		best, _ = p.pickFromBucketLocked(j, dynamicBucket, best, bestRank)
		return best
	}
	var best *machine
	bestRank := 0.0
	for key := range p.freeBuckets {
		best, bestRank = p.pickFromBucketLocked(j, key, best, bestRank)
	}
	return best
}

// sortedPickThreshold is the free-bucket size above which picks switch
// from the full best-rank scan to the per-pass ordered cursor. Small
// buckets (the steady state: a completion frees one machine) scan
// directly — building the sorted view would cost more.
const sortedPickThreshold = 16

// pickFromBucketLocked folds one free bucket into the running
// (best, bestRank) pair. Jobs of one rank class rank a machine alike, so
// under the pinned total order (rank, then machine name) the winner is
// the first acceptable machine of the class's per-pass ordered view:
// Rank runs once per free machine per pass and a pick costs about
// 1/(share of machines that match) Match calls, not one Match + Rank per
// free machine, without changing a single placement. Small buckets, Ranks
// that read the job, and buckets holding a machine whose ranked attribute
// is an expression keep the exhaustive scan.
func (p *Pool) pickFromBucketLocked(j *job, key string, best *machine, bestRank float64) (*machine, float64) {
	b := p.freeBuckets[key]
	if len(b) > sortedPickThreshold {
		if class, ok := j.matcher.RankClass(); ok {
			view := pickKey{key, class}
			pb := p.pickSorted[view]
			if pb == nil {
				if p.pickSorted == nil {
					p.pickSorted = make(map[pickKey]*pickBucket)
				}
				pb = &pickBucket{}
				p.pickSorted[view] = pb
			}
			if pb.gen != p.pickGen {
				pb.build(p.pickGen, j, b)
				p.obsViewBuilds.Inc()
			}
			if !pb.exhaustive {
				return p.pickOrderedLocked(j, pb, best, bestRank)
			}
		}
	}
	p.obsScans.Inc()
	return p.bestCandidate(j, b, best, bestRank)
}

// build snapshots free bucket b for pass gen in the preference order of
// j's rank class.
func (pb *pickBucket) build(gen uint64, j *job, b []*machine) {
	pb.gen, pb.cur, pb.sorted, pb.exhaustive = gen, 0, pb.sorted[:0], false
	for _, m := range b {
		r, ok := j.matcher.TargetRank(m.matcher)
		if !ok {
			pb.exhaustive = true
			return
		}
		pb.sorted = append(pb.sorted, pickEntry{m, r})
	}
	slices.SortFunc(pb.sorted, func(a, c pickEntry) int {
		if byRank := cmp.Compare(c.rank, a.rank); byRank != 0 {
			return byRank
		}
		return strings.Compare(a.m.node.Name, c.m.node.Name)
	})
}

// pickOrderedLocked walks a view from its cursor to j's first acceptable
// machine and folds it against the other buckets' carry.
func (p *Pool) pickOrderedLocked(j *job, pb *pickBucket, best *machine, bestRank float64) (*machine, float64) {
	for i := pb.cur; i < len(pb.sorted); i++ {
		m := pb.sorted[i].m
		if m.freeIdx < 0 || m.skipFor == p {
			// Claimed earlier in this pass, or excluded for the whole
			// pass: gone for good — compact the cursor past a leading run.
			if i == pb.cur {
				pb.cur++
			}
			continue
		}
		if j.reqOpSys != "" && m.opsKnown && m.opsKey != j.reqOpSys {
			continue // rejected for this job only; later jobs may differ
		}
		if !j.matcher.Match(m.matcher) {
			continue
		}
		// First acceptable machine in preference order: no later one in
		// this bucket can beat it. The job's own Rank (its constant, in
		// the degenerate class) is what folds against the carry.
		r := j.matcher.Rank(m.matcher)
		if best == nil || r > bestRank || (r == bestRank && m.node.Name < best.node.Name) {
			return m, r
		}
		return best, bestRank
	}
	return best, bestRank
}

// bestCandidate scans cands for j's best match, carrying the running
// (best, bestRank) pair. Static Arch/OpSys filters prune candidates
// before the ClassAd match evaluates.
func (p *Pool) bestCandidate(j *job, cands []*machine, best *machine, bestRank float64) (*machine, float64) {
	for _, m := range cands {
		if m.skipFor == p {
			continue
		}
		if j.reqArch != "" && m.archKey != j.reqArch && m.archKey != dynamicBucket {
			continue
		}
		if j.reqOpSys != "" && m.opsKnown && m.opsKey != j.reqOpSys {
			continue
		}
		if !j.matcher.Match(m.matcher) {
			continue
		}
		r := j.matcher.Rank(m.matcher)
		if best == nil || r > bestRank || (r == bestRank && m.node.Name < best.node.Name) {
			best, bestRank = m, r
		}
	}
	return best, bestRank
}

// addFreeLocked inserts m into its arch bucket; the owner's lock is held.
// A machine whose caller ad mutated while it was claimed resyncs here so
// it re-enters under its current Arch key.
func (p *Pool) addFreeLocked(m *machine) {
	if m.freeIdx >= 0 {
		return
	}
	if m.ad.Version() != m.adVersion {
		m.snapshotAd()
	}
	b := p.freeBuckets[m.archKey]
	m.freeIdx = len(b)
	p.freeBuckets[m.archKey] = append(b, m)
}

// removeFreeLocked swap-removes m from its arch bucket.
func (p *Pool) removeFreeLocked(m *machine) {
	if m.freeIdx < 0 {
		return
	}
	b := p.freeBuckets[m.archKey]
	last := len(b) - 1
	moved := b[last]
	b[m.freeIdx] = moved
	moved.freeIdx = m.freeIdx
	b[last] = nil
	p.freeBuckets[m.archKey] = b[:last]
	m.freeIdx = -1
}

// claimMachineLocked removes m from its owner's free set when a job starts on
// it. The caller holds p.mu; a flocked machine's owner is locked briefly,
// which cannot deadlock because all cross-pool negotiation runs on the
// single engine goroutine.
func (p *Pool) claimMachineLocked(m *machine) {
	if m.owner == p {
		p.removeFreeLocked(m)
		return
	}
	m.owner.mu.Lock()
	m.owner.removeFreeLocked(m)
	m.owner.mu.Unlock()
}

// releaseClaimLocked returns j's claimed machine (if any) to its owner's
// free set — the completion/removal half of the incremental free-set
// maintenance. A foreign (flocked-onto) machine is enqueued on its
// owner's leaf-locked release queue rather than locked directly: this
// path runs from API goroutines (Remove, fault teardown) already holding
// this pool's lock, and taking another pool's main lock here would
// invert the engine's negotiation lock order.
func (p *Pool) releaseClaimLocked(j *job) {
	m := j.claimed
	if m == nil {
		return
	}
	j.claimed = nil
	o := m.owner
	if o == p {
		p.addFreeLocked(m)
	} else {
		o.relMu.Lock()
		o.pendingRel = append(o.pendingRel, m)
		o.relMu.Unlock()
	}
	// A machine freed is its owner's signal to negotiate again (and, for
	// a foreign machine, to fold the queued release back into its free
	// set even if it has nothing else scheduled); pools flocking into the
	// owner read the same free set, so they wake too.
	o.requestWake()
	o.wakeFlockedFrom()
}

// drainReleasesLocked folds queued foreign releases into the free
// buckets. Called wherever the buckets are about to be read — tick
// start, pass refresh, peer snapshot — so the indexed view never lags
// the physical machine state a full rescan would observe.
func (p *Pool) drainReleasesLocked() {
	p.relMu.Lock()
	for _, m := range p.pendingRel {
		p.addFreeLocked(m)
	}
	p.pendingRel = p.pendingRel[:0]
	p.relMu.Unlock()
}

func removeMachine(ms []*machine, m *machine) []*machine {
	if m == nil {
		return ms
	}
	for i, x := range ms {
		if x == m {
			return append(ms[:i], ms[i+1:]...)
		}
	}
	return ms
}

// startLocked launches job j on machine m, claiming the machine in its
// owner's free set for as long as the task occupies the node.
func (p *Pool) startLocked(j *job, m *machine, now time.Time) {
	need := j.need - j.cpuBase
	if need <= 0 {
		// Checkpoint covered all remaining work; complete immediately. No
		// machine time was consumed, so this is not an allocation for the
		// starvation guard — but the offer is spent for this pass, as it
		// was under the per-pass candidate list.
		m.skipFor = p
		j.startTime = now
		j.completionTime = now
		p.setStatusLocked(j, StatusCompleted)
		p.produceOutputLocked(j)
		return
	}
	if p.fairStart != nil {
		p.fairStart.ObserveStart(j.owner, now)
	}
	p.runTaskLocked(j, m, need)
	if j.startTime.IsZero() {
		j.startTime = now
	}
	p.openUsageLocked(j, m)
	p.setStatusLocked(j, StatusRunning)
}

// runTaskLocked claims m for j and places a task for need CPU-seconds on
// its node. On the pool's own machine the placement is unobserved: the
// pool is the node's observer, it knows what it just placed (the claim is
// taken, and the usage flow opens next at the right rate), and the
// completion comes back through taskDone — marking the node dirty and
// waking for either would only buy a pass that finds nothing changed. A
// flocked-onto machine belongs to another pool, which is told as ever.
func (p *Pool) runTaskLocked(j *job, m *machine, need float64) {
	p.claimMachineLocked(m)
	j.claimed = m
	j.task = simgrid.NewTask(j.taskID, need, func(*simgrid.Task) { p.taskDone(j) })
	j.node = m.node
	if m.owner == p {
		m.node.PlaceUnobserved(j.task)
	} else {
		m.node.Place(j.task)
	}
}

// taskDone is every pool task's done callback; it fires lock-free on the
// engine goroutine when the completion deadline is reached. The claim is
// released at once (the node drops finished tasks immediately), not at
// the next harvest — so the free set always mirrors the physical machine
// state a full rescan would observe, including for flocking peers that
// negotiate between this pool's harvests. Job status still transitions
// at harvest time, driven by the doneQ entry left here, and the release
// requests the wake that runs it: at this boundary if the pool's turn is
// still ahead, otherwise at the next one — the same tick the supervised
// per-tick harvest sees the completion.
func (p *Pool) taskDone(j *job) {
	p.mu.Lock()
	own := j.claimed != nil && j.claimed.owner == p
	p.releaseClaimLocked(j)
	p.doneQ = append(p.doneQ, j)
	p.mu.Unlock()
	if !own {
		p.requestWake() // a flocked-onto machine's release woke its owner, not this pool
	}
}

// openUsageLocked decides how a starting job's fair-share usage will be
// accounted: through a lazily-accrued flow when the sink supports flows
// and the machine's execution rate is analytically constant (sole
// occupant, constant-forever load segment, no fault injection), or by
// eager per-tick supervision otherwise.
func (p *Pool) openUsageLocked(j *job, m *machine) {
	j.supervised = false
	if p.fairFlow != nil && j.failAfter <= 0 {
		if rate, ok := p.flowRateFor(m.node); ok {
			j.flow = p.fairFlow.OpenFlow(j.owner, m.node.Site, rate)
			j.flowRate = rate
			j.flowNode = m.node
			p.nodeJob[m.node] = j
			return
		}
	}
	if j.failAfter > 0 || p.fairSink != nil {
		j.supervised = true
	}
}

// flowRateFor returns the node's analytic execution rate — (1-load) ×
// Mips while the sole task runs under a constant-forever load segment —
// or ok=false when no constant rate exists and the job must be
// supervised eagerly.
func (p *Pool) flowRateFor(node *simgrid.Node) (float64, bool) {
	v, until, piecewise := node.LoadSegment(p.grid.Engine.Now())
	if !piecewise || !until.IsZero() || node.TaskCount() != 1 {
		return 0, false
	}
	rate := (1 - v) * node.Mips
	if rate < 0 {
		rate = 0
	}
	return rate, true
}

// closeFlowLocked settles and closes a job's usage flow against its
// measured CPU-seconds, switching the job back to exact bookkeeping.
func (p *Pool) closeFlowLocked(j *job) {
	cpu := p.cpuSecondsLocked(j) - j.cpuBase
	if cpu < 0 {
		cpu = 0
	}
	j.flow.Close(cpu)
	j.flow = nil
	j.usageRecorded = cpu
	if j.flowNode != nil && p.nodeJob[j.flowNode] == j {
		delete(p.nodeJob, j.flowNode)
	}
	j.flowNode = nil
}

// detachLocked removes the job's task from its node, if any, and releases
// its machine claim.
func (p *Pool) detachLocked(j *job) {
	if j.task != nil {
		j.task.Kill()
		if j.node != nil {
			j.node.Remove(j.task)
		}
	}
	p.releaseClaimLocked(j)
}

// cpuSecondsLocked returns checkpoint base plus live task CPU.
func (p *Pool) cpuSecondsLocked(j *job) float64 {
	cpu := j.cpuBase
	if j.task != nil {
		cpu += j.task.CPUSeconds()
	}
	return cpu
}

// accrueUsageLocked reports the job's locally-executed CPU-seconds to
// the fair-share sink incrementally, attributed to the site whose
// machine ran them — a flocked job charges the peer's site, not this
// pool's. Checkpointed work carried in from another site is excluded;
// that site already accounted for it.
func (p *Pool) accrueUsageLocked(j *job) {
	if p.fairSink == nil || j.flow != nil {
		return // flow jobs accrue lazily inside the sink
	}
	cpu := p.cpuSecondsLocked(j) - j.cpuBase
	if delta := cpu - j.usageRecorded; delta > 0 {
		site := p.site.Name
		if j.node != nil {
			site = j.node.Site
		}
		p.fairSink.RecordUsage(j.owner, site, delta)
		j.usageRecorded = cpu
	}
}

// setStatusLocked applies a state change, maintains the queue summary
// counters the wake-up policy reads, and notifies listeners. Jobs
// reaching a terminal state settle any CPU not yet accounted — closing
// their usage flow with the measured total, or accruing the eager
// remainder.
func (p *Pool) setStatusLocked(j *job, to Status) {
	from := j.status
	j.status = to
	if from == StatusIdle && to != StatusIdle {
		p.idleCount--
		p.dequeueIdleLocked(j)
	}
	if j.supervised {
		if from == StatusRunning && to != StatusRunning {
			p.superviseCount--
		} else if from != StatusRunning && to == StatusRunning {
			p.superviseCount++
		}
	}
	if to.Terminal() {
		p.liveCount--
		if j.flow != nil {
			p.closeFlowLocked(j)
		} else {
			p.accrueUsageLocked(j)
		}
		j.supervised = false
	}
	p.emitLocked(j, from, to)
}

func (p *Pool) emitLocked(j *job, from, to Status) {
	if len(p.listeners) == 0 {
		return
	}
	ev := Event{Pool: p.Name, JobID: j.id, From: from, To: to, At: p.grid.Engine.Now()}
	for _, fn := range p.listeners {
		fn(ev)
	}
}

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
	if j.task != nil {
		info.WallClock = j.task.WallClock()
	}
	if j.cpuBase > 0 {
		// Wall-clock carried from before the checkpointed migration is the
		// base CPU at Mips 1.
		info.WallClock += time.Duration(j.cpuBase * float64(time.Second))
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
