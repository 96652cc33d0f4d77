// Package condor implements the execution service of the GAE
// reproduction: a Condor-like batch system running on the simulated grid.
//
// The paper's Job Monitoring Service "operat[es] in close interaction with
// an execution service (which can be based on any execution engine such as
// Condor)", the Queue-Time Estimator consumes "Condor IDs and the elapsed
// runtime of all tasks having a priority greater than the input task", and
// Figure 7 relies on Condor's accumulated wall-clock accounting. This
// package supplies all of those contracts:
//
//   - ClassAd-based job submission and job↔machine matchmaking
//   - a priority queue with FIFO order within a priority level
//   - job lifecycle: Idle → Running → (Suspended ↔ Running) →
//     Completed / Failed / Removed
//   - per-job accounting: wall-clock (execution time only), CPU seconds,
//     queue position, submit/start/completion timestamps, I/O volumes
//   - checkpointing (resume from accumulated CPU work after migration)
//   - flocking (overflow submission to a peer pool)
//   - failure injection, for exercising the Steering Service's Backup &
//     Recovery module
package condor

import (
	"fmt"
	"math"
	"time"

	"repro/internal/classad"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
)

// Status is a job's lifecycle state, mirroring Condor's JobStatus integers
// where they exist. It is a byte: the pool's record of every job holds one.
type Status uint8

// Job states.
const (
	StatusIdle Status = iota + 1
	StatusRunning
	StatusSuspended
	StatusCompleted
	StatusFailed
	StatusRemoved
)

func (s Status) String() string {
	switch s {
	case StatusIdle:
		return "idle"
	case StatusRunning:
		return "running"
	case StatusSuspended:
		return "suspended"
	case StatusCompleted:
		return "completed"
	case StatusFailed:
		return "failed"
	case StatusRemoved:
		return "removed"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s Status) Terminal() bool {
	return s == StatusCompleted || s == StatusFailed || s == StatusRemoved
}

// Well-known job ad attributes. Submitters set the Attr* inputs; the pool
// maintains the rest.
const (
	AttrOwner        = "Owner"               // string: submitting user
	AttrCmd          = "Cmd"                 // string: executable name (informational)
	AttrPriority     = "JobPrio"             // int: larger runs first
	AttrCpuSeconds   = "CpuSeconds"          // real: ground-truth work on a Mips-1 CPU
	AttrEstimate     = "EstimatedRuntime"    // real: estimator's predicted runtime (s)
	AttrInputMB      = "InputMB"             // real: input I/O volume
	AttrOutputMB     = "OutputMB"            // real: output I/O volume
	AttrOutputFile   = "OutputFile"          // string: file created in site storage on success
	AttrEnv          = "Env"                 // string: environment variables ("K=V;K2=V2")
	AttrRequirements = "Requirements"        // expr: machine constraints
	AttrRank         = "Rank"                // expr: machine preference
	AttrCheckpoint   = "Checkpointable"      // bool: job can resume from a checkpoint
	AttrFailAfter    = "FailAfterCpuSeconds" // real: fault injection point
)

// The attributes the pool reads of a job's ad, keyed once (classad.Name):
// newJob's, a snapshot's, the completion path's and a migration's.
var (
	nameNeed       = classad.NameOf(AttrCpuSeconds)
	namePriority   = classad.NameOf(AttrPriority)
	nameOwner      = classad.NameOf(AttrOwner)
	nameOutputFile = classad.NameOf(AttrOutputFile)
	nameFailAfter  = classad.NameOf(AttrFailAfter)
	nameCmd        = classad.NameOf(AttrCmd)
	nameEnv        = classad.NameOf(AttrEnv)
	nameEstimate   = classad.NameOf(AttrEstimate)
	nameInputMB    = classad.NameOf(AttrInputMB)
	nameOutputMB   = classad.NameOf(AttrOutputMB)
	nameCheckpoint = classad.NameOf(AttrCheckpoint)
)

// num and text read an attribute's value as a number or a string: def, or
// "", for a value of another kind, an absent attribute's (undefined)
// among them.
func num(v classad.Value, def float64) float64 {
	if f, ok := v.RealVal(); ok {
		return f
	}
	return def
}

func text(v classad.Value) string {
	if s, ok := v.StringVal(); ok {
		return s
	}
	return ""
}

// checkpointable reports whether the ad declares the job resumable from
// a checkpoint.
func checkpointable(ad *classad.Ad) bool {
	b, ok := ad.Get(nameCheckpoint).BoolVal()
	return ok && b
}

// Event records a job state transition; the Job Monitoring Service's
// collector subscribes to these and forwards them to MonALISA.
type Event struct {
	Pool  string
	JobID int
	From  Status
	To    Status
	At    time.Time
}

// job is the pool-internal job record. What the negotiation and
// completion paths need from the ad is parsed into fields once, by
// newJob: by the time a job completes its ad was last touched a whole
// runtime ago, and re-reading attributes from it is a cache miss apiece.
//
// The pool keeps one for every job it ever held, so the size is a budget
// (TestJobSize): 176 bytes, the stride of the pool's job chunks, and a
// word more costs every job 8 bytes. So the record holds facts, not their
// containers: timestamps are 8-byte offsets from the pool's epoch, the
// static machine constraints are keys into a pool-local table, whether the
// ad names an output file is a bool (the completion path reads the ad only
// then), and the flags share a word with the queue generation: the
// status, the claim and the output file. A job whose ad has neither
// Requirements nor Rank holds no Matcher: it takes, at rank 0, any machine
// whose own Requirements take it (see pairMatch and machine.anyJob). The
// pool's copy of the ad is written only at JobPrio (SetPriority), so
// what newJob read of it stays true, whether the job needs a Matcher
// among it.
// queue is the owner queue the job files under, which holds the owner's
// fair-share tenant: a start and a flow read the tenant through it, not by
// the owner's name.
type job struct {
	id       int
	ad       *classad.Ad
	priority int
	owner    string  // cached AttrOwner, read on every accounting pass
	need     float64 // AttrCpuSeconds: total work

	// matcher is the job ad compiled for repeated matchmaking: nil for an
	// ad with neither Requirements nor Rank, and once the job is terminal.
	matcher *classad.Matcher

	submitted, started, completed instant // started and completed notYet until then

	// host is the machine the job runs on or last ran on, claimed while its
	// task occupies the node; task is nil unless the job is running or
	// suspended.
	host *machine
	task *simgrid.Task
	// cpuBase and wallBase are the CPU-seconds and wall-clock accumulated
	// before the current task: carried over from a checkpoint or a
	// snapshot, and, once the job is terminal, its final figures (see seal).
	cpuBase  float64
	wallBase time.Duration

	// failAfter caches AttrFailAfter, the fault-injection point: a job
	// with 0 < failAfter ≤ need runs a task cut short there, whose
	// completion is the job's failure (see stopAt).
	failAfter float64

	// flow is the job's fair-share usage stream, open while its task
	// occupies a node and a policy takes flows; flowRate is the rate it was
	// last given: what the node gives the task, nothing while it is paused.
	flow     fairshare.UsageFlow
	flowRate float64

	// qgen invalidates this job's entries in the incremental negotiation
	// queues: SetPriority bumps it and re-inserts, so the stale entry in
	// the old priority bucket is skipped rather than searched for.
	qgen      int32
	status    Status
	claimed   bool // host is held for the task
	hasOutput bool // the ad names an AttrOutputFile
	// reqArch and reqOpSys are the static machine constraints extracted
	// from the Requirements, which key the negotiator's free-machine index
	// (see Pool.constraint); noConstraint when unconstrained.
	reqArch, reqOpSys constraintKey

	// queue is the owner queue the job files under while it is not
	// terminal; set at submit and restore.
	queue *ownerQueue
}

// instant is a job timestamp as its offset from the pool's epoch. notYet
// is the zero time — not started, not completed — kept apart from offset
// 0, since a job can start at the epoch.
type instant int64

const notYet instant = math.MinInt64

// instantOf returns t as an offset from the pool's epoch.
func (p *Pool) instantOf(t time.Time) instant {
	if t.IsZero() {
		return notYet
	}
	return instant(t.Sub(p.epoch))
}

// timeOf returns the time an offset from the pool's epoch stands for.
func (p *Pool) timeOf(i instant) time.Time {
	if i == notYet {
		return time.Time{}
	}
	return p.epoch.Add(time.Duration(i))
}

// constraintKey is a lower-cased Arch or OpSys literal pinned by a job's
// Requirements or advertised by a machine, as its index in the pool's
// table of those seen (Pool.constraints, which only grows); noConstraint
// is the unconstrained job, and dynamicBucket a machine's non-literal
// value (an expression, which may depend on the job): every job scans that
// Arch bucket, and no OpSys pin filters it.
type constraintKey uint32

const noConstraint, dynamicBucket constraintKey = 0, 1

// constraint returns the key of a literal a job's Requirements pin Arch
// or OpSys to (see classad.Matcher.Pins), or a machine advertises, entering
// it in the pool's table, and a free bucket for it, on first sight.
func (p *Pool) constraint(s string) constraintKey {
	if s == "" {
		return noConstraint
	}
	k, seen := p.constraintKeys[s]
	if !seen {
		k = constraintKey(len(p.constraints))
		p.constraints = append(p.constraints, s)
		p.constraintKeys[s] = k
		p.freeBuckets = append(p.freeBuckets, nil)
	}
	return k
}

// faulty reports whether fault injection ends the job before its work does.
func (j *job) faulty() bool { return j.failAfter > 0 && j.failAfter <= j.need }

// stopAt is the CPU-seconds at which the job's task runs out: its need, or
// the fault-injection point when that comes first. Work accounting is
// exact, so "CPU reaches x" is the completion boundary of a task of x
// CPU-seconds — no watcher has to look for it.
func (j *job) stopAt() float64 {
	if j.faulty() {
		return j.failAfter
	}
	return j.need
}

// newJob builds the pool's record of a job from its ad — the one place
// that reads the ad's scheduling attributes, shared by Submit and
// Restore so a recovered job carries exactly what a submitted one does.
// need is the ad's AttrCpuSeconds, which the caller has read. The record
// and the job's copy of the ad are carved from the pool's chunks: a chunk
// is freed only once every job in it retires (none does yet). Only an ad
// with a Requirements or a Rank is compiled to a Matcher, which also
// reads both pins off the Requirements in one walk. The job starts idle
// at the ad's priority; Restore overlays the captured lifecycle state.
func (p *Pool) newJob(id int, ad *classad.Ad, need float64, submitted time.Time) *job {
	ad = p.ads.Copy(ad)
	j := &p.jobChunks.Take(1)[0]
	*j = job{
		id:        id,
		ad:        ad,
		status:    StatusIdle,
		owner:     text(ad.Get(nameOwner)),
		need:      need,
		hasOutput: text(ad.Get(nameOutputFile)) != "",
		failAfter: num(ad.Get(nameFailAfter), 0),
		submitted: p.instantOf(submitted),
		started:   notYet,
		completed: notYet,
	}
	if n, ok := ad.Get(namePriority).IntVal(); ok {
		j.priority = int(n)
	}
	if classad.Constrains(ad) {
		j.matcher = classad.NewMatcher(ad)
		arch, opsys := j.matcher.Pins("Arch", "OpSys")
		j.reqArch, j.reqOpSys = p.constraint(arch), p.constraint(opsys)
	}
	return j
}

// seal makes j the terminal record, the one Restore builds for a job
// captured terminal: the task's final CPU-seconds and wall-clock fold into
// the job's bases, and what only a live job needs goes — the task with its
// done callback, and the compiled matcher.
func (j *job) seal() {
	if j.task != nil {
		j.cpuBase += j.task.CPUSeconds()
		j.wallBase += j.task.WallClock()
		j.task = nil
	}
	j.matcher = nil
}

// JobInfo is an immutable snapshot of a job, carrying every field the
// paper's Job Monitoring Service API exposes: "job status, remaining time,
// elapsed time, estimated run time, queue position, priority, submission
// time, execution time, completion time, CPU time used, amount of input IO
// and output IO, owner name and environment variables".
type JobInfo struct {
	ID       int
	Pool     string
	Status   Status
	Owner    string
	Cmd      string
	Priority int
	Env      string

	SubmitTime     time.Time
	StartTime      time.Time // zero until first execution
	CompletionTime time.Time // zero until terminal

	QueuePosition int // 1-based among idle jobs; 0 when not queued

	EstimatedRuntime  float64       // seconds, 0 when no estimate recorded
	WallClock         time.Duration // accumulated execution time (Condor wall-clock)
	Elapsed           time.Duration // now - submit
	RemainingEstimate float64       // estimate - wallclock, floored at 0

	CPUSeconds float64
	Progress   float64 // CPU done / CPU needed, in [0,1]
	InputMB    float64
	OutputMB   float64

	Node string // execution node name, "" when not placed
}
