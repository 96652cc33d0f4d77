package condor

import (
	"fmt"
	"slices"
	"strings"
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
// else changed one of its machines (a foreign task placed, completed or
// removed, an ad attribute written). What the pool does to its
// own machines inside a pass wakes nobody: a placement it just made
// offers it nothing new, and a completion reaches it through the task's
// done callback, which requests the one wake that harvests it. Time
// passing wakes the pool in two cases only, both the end of a load
// segment: idle jobs waiting on free machines whose advertised load is
// about to change (Requirements like `LoadAvg < 0.5` may flip there), and
// running jobs whose fair-share usage flow must be re-rated because their
// node's rate changes there. Nothing wakes per tick as such: a load of
// one-second segments (NoisyLoad) costs a wake a second. A drained pool
// with no queue costs the simulation nothing.
//
// The negotiation hot path is indexed: free machines are maintained
// incrementally in per-architecture buckets as jobs start and finish
// (rather than rescanned from the full machine list every tick), each
// machine carries one pool-owned ad whose LoadAvg is written at most
// once per negotiation pass (rather than cloned per candidate), and job
// ads are compiled to classad.Matchers with their static Arch/OpSys
// Requirements constraints extracted, so each idle job evaluates the full
// ClassAd match only against plausible candidates. The seed's O(idle × free)
// clone-based negotiator lives on in oracle_test.go as the specification
// this path must reproduce assignment for assignment; the golden-parity
// test runs both on identical workloads.
type Pool struct {
	Name string

	grid *simgrid.Grid
	site *simgrid.Site
	wake *simgrid.Wake

	// epoch is the engine's clock when the pool was made: job timestamps are
	// offsets from it (job.submitted, .started, .completed).
	epoch time.Time

	machines []*machine
	// constraints lists the lower-cased Arch and OpSys literals that jobs'
	// Requirements pin and that machines advertise, constraintKeys indexes
	// it: a job holds the index (job.reqArch, job.reqOpSys), and so does a
	// machine (machine.archKey, .opsKey). Entry 0 is "", noConstraint;
	// entry 1 is dynamicBucket's, which no literal has.
	constraints    []string
	constraintKeys map[string]constraintKey
	// freeBuckets holds machines with no pool-placed task, indexed by the
	// key of their ad's lower-cased literal Arch (dynamicBucket for
	// machines whose Arch is not a static string), one bucket a key.
	// Maintained incrementally by claim/release on job start/completion.
	freeBuckets [][]*machine
	// jobs holds every job the pool ever held, job id at jobs[id-1].
	jobs []*job
	// active lists the non-terminal jobs in submission order; harvest
	// compacts terminal entries out so a walk of it costs O(live jobs), not
	// O(every job ever submitted).
	active      []*job
	idleScratch []*job
	peerScratch []*machine
	curScratch  []ownerCursor
	// streamScratch is the recycled negotiation stream, its slices reused
	// instead of reallocated on every wake. At most one stream is live at
	// a time: a pass and an ordering query (Job, Jobs, QueueAbove) each
	// build and read theirs before anything else runs, and nothing a pass
	// calls asks for the order.
	streamScratch negotiationStream
	// pickGen/pickViews back the rank-ordered pick: large free buckets are
	// kept in preference order, one view per rank class, and consumed by a
	// per-pass cursor (see pickFromBucket). pickGen numbers the
	// passes; changed lists what the current pass's refresh collected —
	// the machines that entered the free set or whose ad's LoadAvg changed
	// since the previous pass — which is all a view has to rank and merge
	// in; byName lists the machines by node name as a refresh last
	// numbered them (numberMachines). Derived state: rebuilt on demand,
	// never exported.
	pickGen     uint64
	pickViews   map[string]*classViews
	changed     []*machine
	pickScratch []pickEntry
	byName      []*machine
	// offers counts the free machines found unoccupied when last visited
	// (machine.counted), and offersUntil is the earliest end of a load
	// segment among them when they were, zero for never: the pool's own
	// record of what a walk of the free set would find. fresh lists the
	// machines a refresh has to visit to keep it so — those that entered
	// the free set since the last pass, and one whose offer a pass spent
	// without a claim — and freshScratch is its drained buffer.
	offers       int
	offersUntil  time.Time
	fresh        []*machine
	freshScratch []*machine
	down         bool
	flockPeer    *Pool
	listeners    []func(Event)
	// fair orders negotiation; fairFlow and fairStart are the same policy
	// seen as what running jobs' usage flows open against and as what hears
	// of job starts, nil when it is neither.
	fair      fairshare.Ranker
	fairFlow  fairshare.FlowSink
	fairStart fairshare.StartObserver
	// negotiateOracle, when set, runs in place of the negotiation pass. It
	// is nil outside tests: the golden-parity test installs the reference
	// negotiator of oracle_test.go here, and the refresh tests a pass that
	// looks at the pool around its refresh (refresh_test.go).
	negotiateOracle func(now time.Time) int

	// owners holds the incrementally maintained negotiation queues (see
	// queue.go) by tenant name: per tenant under a fair-share policy, one
	// shared queue under the static policy. queues lists them in the order
	// they were made, for the per-pass stream to read without a map walk.
	owners map[string]*ownerQueue
	queues []*ownerQueue

	// idleCount / liveCount summarize the queue so the wake-up policy never
	// walks it: idle jobs awaiting a match, and non-terminal jobs (for lazy
	// active-list compaction). The pool wakes only on events — submit,
	// machine freed, ad mutated, node changed, completion deadline — plus
	// two analytic instants, each the end of a load segment: loadWakeAt, the
	// earliest change of a free machine's advertised load, computed by the
	// last pass while idle jobs went unmatched; and flowWakeAt, the earliest
	// change of rate on a node carrying one of the pool's usage flows, kept
	// as flows are rated and recomputed when it comes due.
	idleCount  int
	liveCount  int
	loadWakeAt time.Time
	flowWakeAt time.Time

	// doneQ collects jobs whose completion deadline fired since the last
	// harvest, which finishes exactly these instead of walking every
	// active job.
	doneQ []*job

	// flowScratch is the reused list of the usage flows a wake re-rates,
	// found on the machines carrying them (machine.flowJob).
	flowScratch []*job

	// pendingRel is the cross-pool release queue. A flocked job's
	// terminal transition does not put the machine straight back into its
	// owner's free buckets: it queues here, and the owner folds the queue
	// in at its next wake or peer snapshot — the same point a physical
	// rescan would first observe the machine idle. When an owner sees a
	// foreign release decides placements, so the deferral stays.
	pendingRel []*machine
	// dirty collects the machines whose node's observer fired since the
	// last pass — someone other than this pool's own pass changed their
	// load or task set; the pool folds them in at the next wake to re-rate
	// usage flows. A machine may be listed twice (folding is idempotent);
	// dirtyScratch is the drained buffer, swapped back in so a drain
	// allocates nothing. flockedFrom lists pools flocking into this one;
	// they are woken whenever this pool's machine picture changes, since
	// their negotiation reads it. rewalk asks the next refresh to walk
	// every free machine: something other than the pool's own pass changed
	// a machine — a node's load or task set, or, through a flocking
	// peer's snapshot, an ad's LoadAvg.
	dirty        []*machine
	dirtyScratch []*machine
	flockedFrom  []*Pool
	rewalk       bool

	// Pre-resolved telemetry handles (nil without SetTelemetry; nil
	// instruments no-op).
	obsWakes       *telemetry.Counter
	obsIdleWakes   *telemetry.Counter
	obsPasses      *telemetry.Counter
	obsMatches     *telemetry.Counter
	obsViewBuilds  *telemetry.Counter
	obsRankEvals   *telemetry.Counter
	obsScans       *telemetry.Counter
	obsPassSeconds *telemetry.Histogram
}

// SetTelemetry registers the pool's negotiation metrics in reg, labeled
// by site: wake-ups, idle wake-ups (nothing harvested, no usage flow
// looked at, nothing matched, and no idle job waiting for a load boundary —
// a wake nothing needed), negotiation passes (those with at least one
// idle job), matches started, wall-clock pass duration, and what the
// passes' picks cost: ordered views built (from empty: one Rank per free
// machine of the bucket and a sort), Rank evaluations spent keeping views
// (one per machine entering one) and exhaustive bucket scans (one Match +
// Rank per free machine each).
func (p *Pool) SetTelemetry(reg *telemetry.Registry) {
	p.obsWakes = reg.LabeledCounter("pool_wakes_total", "site", p.Name)
	p.obsIdleWakes = reg.LabeledCounter("pool_idle_wakes_total", "site", p.Name)
	p.obsPasses = reg.LabeledCounter("negotiation_passes_total", "site", p.Name)
	p.obsMatches = reg.LabeledCounter("negotiation_matches_total", "site", p.Name)
	p.obsViewBuilds = reg.LabeledCounter("negotiation_view_builds_total", "site", p.Name)
	p.obsRankEvals = reg.LabeledCounter("negotiation_rank_evals_total", "site", p.Name)
	p.obsScans = reg.LabeledCounter("negotiation_exhaustive_scans_total", "site", p.Name)
	p.obsPassSeconds = reg.LabeledHistogram("negotiation_pass_seconds", "site", p.Name, nil)
}

type machine struct {
	// What a completion reads leads the struct, inside one 64-byte span
	// (TestCompletionPathLayout): the job and pool Complete names, the
	// owner whose free set takes the machine back, and what
	// addFree reads and writes there.
	//
	// runner is the job whose task occupies the node, of runnerPool — the
	// owner, or a pool flocking onto the machine: a claim is exclusive, so
	// there is one, and the machine is its task's Completer. They stay set
	// after the task ends, until the next job starts here.
	runner     *job
	runnerPool *Pool
	owner      *Pool
	// freeIdx is the machine's position in its owner's free bucket, -1
	// while claimed by a job.
	freeIdx int
	archKey constraintKey // lowered Arch value, or dynamicBucket
	// viewDirty marks a machine that entered the free set, or whose ad's
	// LoadAvg changed in place, since a pass refresh last collected
	// it: what the ordered views hold of it is stale. viewGen is the pass
	// (owner's pickGen) whose refresh collected it into Pool.changed.
	viewDirty bool
	// fresh: the machine is on its owner's list for the next pass's refresh
	// to visit (Pool.fresh). counted: it is in its owner's offers — free,
	// and unoccupied when last visited.
	fresh, counted bool

	node *simgrid.Node
	// ad is the machine's one ad, the pool's from AddMachine on: the
	// matchmaker, the index keys and the ordered views read it, and only
	// its LoadAvg is written after AddMachine — in place, at most once per
	// negotiation pass, when a refresh visits the machine.
	ad      *classad.Ad
	matcher *classad.Matcher
	// loadAvg mirrors the LoadAvg last written into ad so unchanged
	// values skip the ad mutation on every negotiation pass.
	loadAvg    float64
	loadAvgSet bool
	// anyJob: the ad has no Requirements, so it takes any job (see
	// pairMatch).
	anyJob  bool
	opsKey  constraintKey // lowered OpSys value, or dynamicBucket
	ord     uint32        // node name's place among the pool's (numberMachines)
	viewGen uint64
	// skipFor excludes the machine from the named pool's current
	// negotiation pass: set when an externally placed task occupies the
	// node, or when a checkpoint-complete job consumed the offer without
	// placing work.
	skipFor *Pool
}

// Complete hears that the machine's task ran out (simgrid.Completer): the
// machine names the job it runs, so a start allocates no closure.
func (m *machine) Complete(*simgrid.Task) { m.runnerPool.taskDone(m.runner) }

// flowJob returns the job of pool p whose usage flow is open on m — all
// the open flows there are — or nil. runnerPool is read first: a machine
// another pool runs on holds none of p's flows, and its runner is that
// pool's to read. Nothing is written when a flow closes, so a flocked job
// closing its flow leaves the owner's machine alone.
func (m *machine) flowJob(p *Pool) *job {
	if m.runnerPool != p {
		return nil
	}
	if j := m.runner; j.flow != nil && j.host == m {
		return j
	}
	return nil
}

// NewPool creates an execution service for site, registered with the
// grid's engine.
func NewPool(name string, grid *simgrid.Grid, site *simgrid.Site) *Pool {
	p := &Pool{
		Name:           name,
		grid:           grid,
		site:           site,
		epoch:          grid.Engine.Now(),
		constraints:    []string{"", ""},
		constraintKeys: make(map[string]constraintKey),
		freeBuckets:    make([][]*machine, 2),
		owners:         make(map[string]*ownerQueue),
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

// AddMachine advertises a node to the negotiator. The pool owns ad from
// this call on, or makes a fresh one when ad is nil: it writes the
// standard attributes (Machine, Mips, and Arch and OpSys where the ad has
// none) and a LoadAvg slot into it, and reads that ad for the machine's
// whole life. The caller must not change the ad afterwards.
func (p *Pool) AddMachine(node *simgrid.Node, ad *classad.Ad) {
	if ad == nil {
		ad = classad.New()
	}
	ad.Grow(5) // the attributes below, at most
	ad.SetValue("Machine", classad.Str(node.Name))
	ad.SetValue("Mips", classad.Real(node.Mips))
	if !ad.Has("Arch") {
		ad.SetValue("Arch", classad.Str("x86"))
	}
	if !ad.Has("OpSys") {
		ad.SetValue("OpSys", classad.Str("LINUX"))
	}
	// LoadAvg takes its slot now: each pass's refresh then writes in place.
	ad.SetValue("LoadAvg", classad.Undefined())
	m := &machine{
		node:    node,
		owner:   p,
		ad:      ad,
		matcher: classad.NewMatcher(ad),
		anyJob:  !ad.Has(AttrRequirements),
		archKey: p.literalKey(ad, "Arch"),
		opsKey:  p.literalKey(ad, "OpSys"),
		freeIdx: -1,
	}
	// Subscriptions replace per-tick polling: a change to the node's tasks
	// made by anyone but this pool's own pass (a foreign task placed or
	// completed, any task removed) marks the node dirty and wakes the
	// negotiator — this pool's and any pool flocking into it. One
	// observer per node: a node advertised to several pools keeps only
	// the last registration.
	node.SetObserver(func() { p.machineChanged(m) })
	p.machines = append(p.machines, m)
	p.addFree(m)
	p.requestWake()
	p.wakeFlockedFrom()
}

// machineChanged records a machine-side change and wakes every
// negotiator that reads this pool's machines.
func (p *Pool) machineChanged(m *machine) {
	p.dirty = append(p.dirty, m)
	p.rewalk = true
	p.requestWake()
	p.wakeFlockedFrom()
}

// wakeFlockedFrom wakes the pools flocking into this one.
func (p *Pool) wakeFlockedFrom() {
	for _, q := range p.flockedFrom {
		q.requestWake()
	}
}

// literalKey is the constraint key of ad's name attribute, lowered, or
// dynamicBucket. Only literal attributes are safe index keys: an
// expression-valued Arch/OpSys can evaluate differently per candidate
// job, so such machines take the catch-all bucket / skip the OpSys
// pre-filter.
func (p *Pool) literalKey(ad *classad.Ad, name string) constraintKey {
	if s, ok := ad.LiteralString(name); ok {
		return p.constraint(strings.ToLower(s))
	}
	return dynamicBucket
}

// numberMachines lists the pool's machines by node name (byName), each at
// its ordinal (machine.ord), and drops the ordered views, whose entries
// carry the old numbers.
func (p *Pool) numberMachines() {
	p.byName = slices.Clone(p.machines)
	slices.SortStableFunc(p.byName, func(a, b *machine) int { return strings.Compare(a.node.Name, b.node.Name) })
	for i, m := range p.byName {
		m.ord = uint32(i)
	}
	clear(p.pickViews)
}

// Machines returns the advertised machine count.
func (p *Pool) Machines() int {
	return len(p.machines)
}

// EnableFlocking lets idle jobs overflow to peer when no local machine
// matches. Condor flocking submits to a remote pool while preserving the
// job's identity; here the job simply also negotiates against the peer's
// machines.
func (p *Pool) EnableFlocking(peer *Pool) {
	p.flockPeer = peer
	if peer != nil {
		peer.flockedFrom = append(peer.flockedFrom, p)
	}
	p.requestWake()
}

// SetFairShare installs a fair-share policy: negotiation (and the
// reported queue position) orders idle jobs by fairshare.LessKeys over
// pol's keys instead of static priority with FIFO, making the queue
// time-aware. If pol also implements fairshare.FlowSink — as
// *fairshare.Manager does — the CPU-seconds each job executes here accrue
// to its owner at the executing site while it runs, through a usage flow
// closed with the measured total when the job reaches a terminal state,
// closing the accounting loop the paper's stack lacks. A pool's policy is
// set once, before it holds its first job, submitted or restored; it
// panics after.
func (p *Pool) SetFairShare(pol fairshare.Ranker) {
	if len(p.jobs) != 0 {
		panic(fmt.Sprintf("condor: fair-share policy set on pool %s, which holds jobs", p.Name))
	}
	p.fair = pol
	p.fairFlow, _ = pol.(fairshare.FlowSink)
	p.fairStart, _ = pol.(fairshare.StartObserver)
}

// Subscribe registers a listener for job state transitions. Listeners run
// synchronously, inside the transition; they must not block.
func (p *Pool) Subscribe(fn func(Event)) {
	p.listeners = append(p.listeners, fn)
}

// Fail marks the execution service down: all API calls error and running
// tasks stop progressing (their nodes keep ticking, but harvest pauses).
func (p *Pool) Fail() {
	p.down = true
	for _, j := range p.active {
		if j.status == StatusRunning && j.task != nil {
			j.task.Suspend()
			p.rerate(j) // tasks stop progressing while down
		}
	}
}

// Recover brings a failed service back; suspended-by-failure jobs resume
// and the pool re-arms its engine wakeup.
func (p *Pool) Recover() {
	p.down = false
	for _, j := range p.active {
		if j.status == StatusRunning && j.task != nil {
			j.task.Resume()
			p.rerate(j)
		}
	}
	p.requestWake()
	p.wakeFlockedFrom() // peers can match against this pool again
}

// Healthy reports whether the execution service answers requests — the
// probe the Backup & Recovery module polls.
func (p *Pool) Healthy() bool {
	return !p.down
}
