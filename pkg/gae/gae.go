// Package gae is the public, typed API of the Grid Analysis Environment:
// one Go interface per paper service, request/response structs instead of
// map[string]any, and a single Client that satisfies every interface over
// two transports.
//
// # Services
//
// The paper's resource-management services map one-to-one onto the
// interfaces in this package: Scheduler (plan submission and tracking),
// Steering (job control), JobMon (the JMExecutable monitoring view),
// Estimator (runtime / queue-time / transfer-time predictions), Quota
// (credits and cost quotes), Replica (the data location service), Monitor
// (MonALISA "Grid weather"), and State (per-user analysis-session state).
//
// # Local construction
//
// A process that embeds the deployment gets a zero-serialization client
// whose calls go straight into the wired services:
//
//	g := core.New(cfg)
//	client := g.Client("alice") // *gae.Client acting as alice
//	sites, err := client.Sites(ctx)
//
// # Remote construction
//
// A process talking to a running gae-server dials the Clarens XML-RPC
// endpoint; the same methods now ride the wire with auth, per-request
// context, and a configurable HTTP timeout:
//
//	client, err := gae.Dial(ctx, "http://localhost:8080",
//		gae.WithCredentials("alice", "secret"),
//		gae.WithTimeout(10*time.Second))
//	defer client.Close(ctx)
//	sites, err := client.Sites(ctx)
//
// Each mutating remote call carries a request ID, minted by the transport
// once per logical call or pinned by the caller with WithRequestID, so a
// retry of a call whose reply was lost is answered from the server's
// idempotency window instead of applying twice. A local call is never
// retried and carries an ID only when one is pinned.
//
// Both constructions yield the same *Client, so libraries written against
// the interfaces (or against *Client) are transport-agnostic. The
// transport-parity test suite pins both paths to identical observable
// behavior.
package gae

import (
	"context"
	"errors"
)

// ErrNoSession is returned by methods that need an authenticated caller
// when none is attached to the context. Over the wire it surfaces as an
// XML-RPC authentication fault.
var ErrNoSession = errors.New("gae: no authenticated session")

// UserResolver maps a request context to the acting user name ("" for
// anonymous). Server-side bindings resolve the Clarens session; local
// clients use a fixed identity.
type UserResolver func(ctx context.Context) string

// Scheduler is the Sphinx-like scheduling middleware contract: abstract
// plan submission, concrete plan tracking, and the site inventory.
type Scheduler interface {
	// Submit validates and schedules a plan, returning its name. The plan
	// owner is the acting user; clients cannot submit on another account.
	Submit(ctx context.Context, plan PlanSpec) (string, error)
	// Plan reports a submitted plan's per-task assignments and outcome.
	Plan(ctx context.Context, name string) (PlanStatus, error)
	// Sites lists the deployment's execution sites, sorted.
	Sites(ctx context.Context) ([]string, error)
}

var (
	schedulerSubmit = row1("scheduler.submit", writes, Scheduler.Submit)
	schedulerPlan   = row1("scheduler.plan", reads, Scheduler.Plan)
	schedulerSites  = row0("scheduler.sites", reads, Scheduler.Sites)
)

// Steering is the Steering Service contract: inspect and control the
// acting user's tasks (per-task ownership is enforced server-side).
type Steering interface {
	// Jobs lists the acting user's watched tasks as "plan/task" refs.
	Jobs(ctx context.Context) ([]string, error)
	// TaskStatus returns the combined assignment + live monitoring view.
	TaskStatus(ctx context.Context, plan, task string) (SteeringStatus, error)
	Kill(ctx context.Context, plan, task string) error
	Pause(ctx context.Context, plan, task string) error
	Resume(ctx context.Context, plan, task string) error
	// Move redirects a task; an empty site lets the scheduler choose.
	Move(ctx context.Context, plan, task, site string) (MoveResult, error)
	SetPriority(ctx context.Context, plan, task string, priority int) error
	// EstimateCompletion predicts the seconds until the task finishes.
	EstimateCompletion(ctx context.Context, plan, task string) (float64, error)
	// Notifications drains the acting user's queued steering messages.
	Notifications(ctx context.Context) ([]Notification, error)
	// Preference reads the optimizer preference; SetPreference changes it
	// ("fast" or "cheap") and echoes the applied value.
	Preference(ctx context.Context) (string, error)
	SetPreference(ctx context.Context, preference string) (string, error)
}

var (
	steeringJobs        = row0("steering.jobs", reads, Steering.Jobs)
	steeringStatus      = row2("steering.status", reads, Steering.TaskStatus)
	steeringKill        = row2("steering.kill", writes, acked2(Steering.Kill))
	steeringPause       = row2("steering.pause", writes, acked2(Steering.Pause))
	steeringResume      = row2("steering.resume", writes, acked2(Steering.Resume))
	steeringSetPriority = row3("steering.setpriority", writes, acked3(Steering.SetPriority))
	steeringEstimate    = row2("steering.estimate", reads, Steering.EstimateCompletion)
	steeringNotices     = row0("steering.notifications", reads, Steering.Notifications)
	// The journal records the site a move landed on, not the requested
	// (possibly empty) one: replay must not re-run site selection against
	// monitoring state that no longer exists.
	steeringMove       = row3("steering.move", writes, Steering.Move).optionalLast(func(res MoveResult) string { return res.Site })
	steeringPreference = row0("steering.preference", reads, Steering.Preference)
	// SetPreference shares the wire name of the read above, told apart
	// by its argument, and journals the preference it applied.
	steeringSetPreference = row1("steering.preference", writes, Steering.SetPreference).journalsAs("steering.setpreference", func(applied string) string { return applied })
)

// JobMon is the Job Monitoring Service contract (the JMExecutable).
type JobMon interface {
	// Job returns the full monitoring snapshot of one job.
	Job(ctx context.Context, pool string, id int) (JobInfo, error)
	// JobStatus returns just the job status string.
	JobStatus(ctx context.Context, pool string, id int) (string, error)
	// JobProgress returns the completion fraction in [0,1].
	JobProgress(ctx context.Context, pool string, id int) (float64, error)
	// JobWallclock returns accumulated execution seconds.
	JobWallclock(ctx context.Context, pool string, id int) (float64, error)
	// JobElapsed returns seconds since submission.
	JobElapsed(ctx context.Context, pool string, id int) (float64, error)
	// JobRemaining returns the estimated seconds left.
	JobRemaining(ctx context.Context, pool string, id int) (float64, error)
	// JobQueuePosition returns the 1-based queue slot (0 = not queued).
	JobQueuePosition(ctx context.Context, pool string, id int) (int, error)
	// JobList returns every job at an execution service.
	JobList(ctx context.Context, pool string) ([]JobInfo, error)
	// Pools lists the watched execution services.
	Pools(ctx context.Context) ([]string, error)
}

var (
	jobmonInfo          = row2("jobmon.info", reads, JobMon.Job)
	jobmonStatus        = row2("jobmon.status", reads, JobMon.JobStatus)
	jobmonProgress      = row2("jobmon.progress", reads, JobMon.JobProgress)
	jobmonWallclock     = row2("jobmon.wallclock", reads, JobMon.JobWallclock)
	jobmonElapsed       = row2("jobmon.elapsed", reads, JobMon.JobElapsed)
	jobmonRemaining     = row2("jobmon.remaining", reads, JobMon.JobRemaining)
	jobmonQueuePosition = row2("jobmon.queueposition", reads, JobMon.JobQueuePosition)
	jobmonList          = row1("jobmon.list", reads, JobMon.JobList)
	jobmonPools         = row0("jobmon.pools", reads, JobMon.Pools)
)

// Estimator is the Estimator Service contract.
type Estimator interface {
	// EstimateRuntime predicts a task's runtime at a site from that
	// site's decentralized history.
	EstimateRuntime(ctx context.Context, site string, task TaskProfile) (RuntimeEstimate, error)
	// EstimateQueueTime predicts how long a queued job waits to start.
	EstimateQueueTime(ctx context.Context, site string, condorID int) (QueueEstimate, error)
	// EstimateTransfer predicts moving sizeMB between two sites.
	EstimateTransfer(ctx context.Context, src, dst string, sizeMB float64) (TransferEstimate, error)
}

var (
	estimatorRuntime   = row2("estimator.runtime", reads, Estimator.EstimateRuntime)
	estimatorQueueTime = row2("estimator.queuetime", reads, Estimator.EstimateQueueTime)
	estimatorTransfer  = row3("estimator.transfer", reads, Estimator.EstimateTransfer)
)

// Quota is the Quota and Accounting Service contract.
type Quota interface {
	// Balance returns the acting user's credits.
	Balance(ctx context.Context) (float64, error)
	// Cost quotes the credits cpuSeconds plus mb of transfer would cost.
	Cost(ctx context.Context, site string, cpuSeconds, mb float64) (float64, error)
	// Cheapest picks the lowest-cost candidate site for the usage.
	Cheapest(ctx context.Context, sites []string, cpuSeconds, mb float64) (CostQuote, error)
	// Grant credits a user's account (administrators only).
	Grant(ctx context.Context, user string, credits float64) error
	// ChargeUsage bills recorded usage against a user's balance and
	// appends it to the accounting ledger, returning the credits charged
	// (administrators only).
	ChargeUsage(ctx context.Context, req ChargeRequest) (float64, error)
}

var (
	quotaBalance  = row0("quota.balance", reads, Quota.Balance)
	quotaCost     = row3("quota.cost", reads, Quota.Cost)
	quotaCheapest = row3("quota.cheapest", reads, Quota.Cheapest)
	quotaGrant    = row2("quota.grant", writes, acked2(Quota.Grant))
	quotaCharge   = row1("quota.charge", writes, Quota.ChargeUsage)
)

// Replica is the replica catalog (data location service) contract.
type Replica interface {
	// Datasets lists the catalog's dataset names.
	Datasets(ctx context.Context) ([]string, error)
	// Replicas lists a dataset's replica locations.
	Replicas(ctx context.Context, dataset string) ([]ReplicaLocation, error)
	// RegisterReplica records a replica of dataset at site.
	RegisterReplica(ctx context.Context, dataset, site string, sizeMB float64) error
	// BestReplica picks the replica closest (by measured transfer time)
	// to a destination site.
	BestReplica(ctx context.Context, dataset, dstSite string) (ReplicaChoice, error)
}

var (
	replicaDatasets  = row0("replica.datasets", reads, Replica.Datasets)
	replicaLocations = row1("replica.locations", reads, Replica.Replicas)
	replicaRegister  = row3("replica.register", writes, acked3(Replica.RegisterReplica))
	replicaBest      = row2("replica.best", reads, Replica.BestReplica)
)

// Monitor is the MonALISA repository contract — the "Grid weather".
type Monitor interface {
	// Latest returns a metric's most recent value.
	Latest(ctx context.Context, source, name string) (float64, error)
	// Series returns samples from the last sinceSeconds seconds.
	Series(ctx context.Context, source, name string, sinceSeconds float64) ([]MetricPoint, error)
	// Metrics lists all known series as "source/name" strings.
	Metrics(ctx context.Context) ([]string, error)
	// Events returns job state changes since sinceSeconds ago ("" source
	// selects every source).
	Events(ctx context.Context, source string, sinceSeconds float64) ([]GridEvent, error)
	// Weather returns the per-site load / running / free snapshot.
	Weather(ctx context.Context) ([]SiteWeather, error)
}

var (
	monitorLatest  = row2("monitor.latest", reads, Monitor.Latest)
	monitorSeries  = row3("monitor.series", reads, Monitor.Series)
	monitorMetrics = row0("monitor.metrics", reads, Monitor.Metrics)
	monitorEvents  = row2("monitor.events", reads, Monitor.Events)
	monitorSites   = row0("monitor.sites", reads, Monitor.Weather)
)

// State is the per-user analysis-session state store contract. Keys are
// private to the acting user.
type State interface {
	SetState(ctx context.Context, key, value string) error
	GetState(ctx context.Context, key string) (string, error)
	StateKeys(ctx context.Context) ([]string, error)
	// DeleteState removes a key, reporting whether it existed.
	DeleteState(ctx context.Context, key string) (bool, error)
}

var (
	stateSet    = row2("state.set", writes, acked2(State.SetState))
	stateGet    = row1("state.get", reads, State.GetState)
	stateKeys   = row0("state.keys", reads, State.StateKeys)
	stateDelete = row1("state.delete", writes, State.DeleteState)
)
