package gae

import (
	"context"
	"net/http"
	"time"

	"repro/internal/clarens"
	"repro/internal/xmlrpc"
)

// The remote transport: every service contract implemented as Clarens
// XML-RPC calls. Requests honor the caller's context (cancellation and
// deadlines propagate into the HTTP layer), the session token from Dial
// rides every call, and the HTTP client enforces a configurable timeout
// so a hung server cannot wedge a CLI. Each mutating call carries a
// request ID (see ids.go) across all of its attempts.

// Option configures Dial.
type Option func(*dialOptions)

type dialOptions struct {
	user, pass string
	token      string
	timeout    time.Duration
	retry      *RetryPolicy
	transport  http.RoundTripper
}

// WithCredentials makes Dial authenticate and attach the resulting
// session token to every call.
func WithCredentials(user, password string) Option {
	return func(o *dialOptions) { o.user, o.pass = user, password }
}

// WithToken attaches an existing session token (e.g. shared across
// processes) instead of logging in.
func WithToken(token string) Option {
	return func(o *dialOptions) { o.token = token }
}

// WithTimeout bounds every HTTP request (default 30s; 0 means no bound).
func WithTimeout(d time.Duration) Option {
	return func(o *dialOptions) { o.timeout = d }
}

// WithRetryPolicy enables the retry layer (see retry.go): transport
// failures and FaultUnavailable are retried with exponential backoff
// under a per-endpoint circuit breaker. Without this option every wire
// error surfaces directly, as before.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(o *dialOptions) { o.retry = &p }
}

// WithTransport installs a custom HTTP round-tripper on the underlying
// client — fault-injection harnesses wrap the real transport here.
func WithTransport(rt http.RoundTripper) Option {
	return func(o *dialOptions) { o.transport = rt }
}

// Dial connects to a Clarens endpoint and returns a remote-transport
// Client. With WithCredentials it logs in before returning.
func Dial(ctx context.Context, endpoint string, opts ...Option) (*Client, error) {
	o := dialOptions{timeout: 30 * time.Second}
	for _, opt := range opts {
		opt(&o)
	}
	cc := clarens.NewClient(endpoint)
	cc.HTTP.Timeout = o.timeout
	if o.transport != nil {
		cc.HTTP.Transport = o.transport
	}
	if o.token != "" {
		cc.SetToken(o.token)
	}
	loggedIn := false
	if o.user != "" {
		if err := cc.Login(ctx, o.user, o.pass); err != nil {
			return nil, err
		}
		loggedIn = true
	}
	r := &remote{c: cc, ids: newIDGen()}
	if o.retry != nil {
		r.retry = newRetryState(*o.retry)
	}
	client := NewClient(Services{
		Scheduler: r, Steering: r, JobMon: r, Estimator: r,
		Quota: r, Replica: r, Monitor: r, State: r,
	})
	client.session = cc
	client.ownsSession = loggedIn
	client.retry = r.retry
	return client, nil
}

// remote implements every service interface over one Clarens client.
type remote struct {
	c     *clarens.Client
	ids   *idGen
	retry *retryState // nil unless Dial got WithRetryPolicy
}

// call performs the XML-RPC call, encoding the typed arguments and decoding
// the result into R in one pass each. With a retry policy every attempt
// starts from a zero R, whatever a failed reply had filled in.
func call[R any](ctx context.Context, r *remote, method string, args ...any) (R, error) {
	var out R
	err := r.retry.do(ctx, func(ctx context.Context) error { return r.c.CallInto(ctx, method, &out, args...) })
	return out, err
}

// mutate performs a mutating call: the ID WithRequestID pinned on ctx,
// or one minted here, rides every attempt as a header, so the server
// applies the call at most once however often it is retried.
func mutate[R any](ctx context.Context, r *remote, method string, args ...any) (R, error) {
	rid := clarens.RequestID(ctx)
	if rid == "" {
		rid = r.ids.next()
	}
	return call[R](xmlrpc.WithCallHeader(ctx, clarens.RequestIDHeader, rid), r, method, args...)
}

// action performs a mutating call whose result (the conventional true)
// is discarded.
func action(ctx context.Context, r *remote, method string, args ...any) error {
	_, err := mutate[any](ctx, r, method, args...)
	return err
}

// Scheduler.

func (r *remote) Submit(ctx context.Context, plan PlanSpec) (string, error) {
	return mutate[string](ctx, r, "scheduler.submit", plan)
}

func (r *remote) Plan(ctx context.Context, name string) (PlanStatus, error) {
	return call[PlanStatus](ctx, r, "scheduler.plan", name)
}

func (r *remote) Sites(ctx context.Context) ([]string, error) {
	return call[[]string](ctx, r, "scheduler.sites")
}

// Steering.

func (r *remote) Jobs(ctx context.Context) ([]string, error) {
	return call[[]string](ctx, r, "steering.jobs")
}

func (r *remote) TaskStatus(ctx context.Context, plan, task string) (SteeringStatus, error) {
	return call[SteeringStatus](ctx, r, "steering.status", plan, task)
}

func (r *remote) Kill(ctx context.Context, plan, task string) error {
	return action(ctx, r, "steering.kill", plan, task)
}

func (r *remote) Pause(ctx context.Context, plan, task string) error {
	return action(ctx, r, "steering.pause", plan, task)
}

func (r *remote) Resume(ctx context.Context, plan, task string) error {
	return action(ctx, r, "steering.resume", plan, task)
}

func (r *remote) Move(ctx context.Context, plan, task, site string) (MoveResult, error) {
	if site == "" {
		return mutate[MoveResult](ctx, r, "steering.move", plan, task)
	}
	return mutate[MoveResult](ctx, r, "steering.move", plan, task, site)
}

func (r *remote) SetPriority(ctx context.Context, plan, task string, priority int) error {
	return action(ctx, r, "steering.setpriority", plan, task, priority)
}

func (r *remote) EstimateCompletion(ctx context.Context, plan, task string) (float64, error) {
	return call[float64](ctx, r, "steering.estimate", plan, task)
}

func (r *remote) Notifications(ctx context.Context) ([]Notification, error) {
	return call[[]Notification](ctx, r, "steering.notifications")
}

func (r *remote) Preference(ctx context.Context) (string, error) {
	return call[string](ctx, r, "steering.preference")
}

func (r *remote) SetPreference(ctx context.Context, preference string) (string, error) {
	return mutate[string](ctx, r, "steering.preference", preference)
}

// JobMon.

func (r *remote) Job(ctx context.Context, pool string, id int) (JobInfo, error) {
	return call[JobInfo](ctx, r, "jobmon.info", pool, id)
}

func (r *remote) JobStatus(ctx context.Context, pool string, id int) (string, error) {
	return call[string](ctx, r, "jobmon.status", pool, id)
}

func (r *remote) JobProgress(ctx context.Context, pool string, id int) (float64, error) {
	return call[float64](ctx, r, "jobmon.progress", pool, id)
}

func (r *remote) JobWallclock(ctx context.Context, pool string, id int) (float64, error) {
	return call[float64](ctx, r, "jobmon.wallclock", pool, id)
}

func (r *remote) JobElapsed(ctx context.Context, pool string, id int) (float64, error) {
	return call[float64](ctx, r, "jobmon.elapsed", pool, id)
}

func (r *remote) JobRemaining(ctx context.Context, pool string, id int) (float64, error) {
	return call[float64](ctx, r, "jobmon.remaining", pool, id)
}

func (r *remote) JobQueuePosition(ctx context.Context, pool string, id int) (int, error) {
	return call[int](ctx, r, "jobmon.queueposition", pool, id)
}

func (r *remote) JobList(ctx context.Context, pool string) ([]JobInfo, error) {
	return call[[]JobInfo](ctx, r, "jobmon.list", pool)
}

func (r *remote) Pools(ctx context.Context) ([]string, error) {
	return call[[]string](ctx, r, "jobmon.pools")
}

// Estimator.

func (r *remote) EstimateRuntime(ctx context.Context, site string, task TaskProfile) (RuntimeEstimate, error) {
	return call[RuntimeEstimate](ctx, r, "estimator.runtime", site, task)
}

func (r *remote) EstimateQueueTime(ctx context.Context, site string, condorID int) (QueueEstimate, error) {
	return call[QueueEstimate](ctx, r, "estimator.queuetime", site, condorID)
}

func (r *remote) EstimateTransfer(ctx context.Context, src, dst string, sizeMB float64) (TransferEstimate, error) {
	return call[TransferEstimate](ctx, r, "estimator.transfer", src, dst, sizeMB)
}

// Quota.

func (r *remote) Balance(ctx context.Context) (float64, error) {
	return call[float64](ctx, r, "quota.balance")
}

func (r *remote) Cost(ctx context.Context, site string, cpuSeconds, mb float64) (float64, error) {
	return call[float64](ctx, r, "quota.cost", site, cpuSeconds, mb)
}

func (r *remote) Cheapest(ctx context.Context, sites []string, cpuSeconds, mb float64) (CostQuote, error) {
	return call[CostQuote](ctx, r, "quota.cheapest", sites, cpuSeconds, mb)
}

func (r *remote) Grant(ctx context.Context, user string, credits float64) error {
	return action(ctx, r, "quota.grant", user, credits)
}

func (r *remote) ChargeUsage(ctx context.Context, req ChargeRequest) (float64, error) {
	return mutate[float64](ctx, r, "quota.charge", req)
}

// Replica.

func (r *remote) Datasets(ctx context.Context) ([]string, error) {
	return call[[]string](ctx, r, "replica.datasets")
}

func (r *remote) Replicas(ctx context.Context, dataset string) ([]ReplicaLocation, error) {
	return call[[]ReplicaLocation](ctx, r, "replica.locations", dataset)
}

func (r *remote) RegisterReplica(ctx context.Context, dataset, site string, sizeMB float64) error {
	return action(ctx, r, "replica.register", dataset, site, sizeMB)
}

func (r *remote) BestReplica(ctx context.Context, dataset, dstSite string) (ReplicaChoice, error) {
	return call[ReplicaChoice](ctx, r, "replica.best", dataset, dstSite)
}

// Monitor.

func (r *remote) Latest(ctx context.Context, source, name string) (float64, error) {
	return call[float64](ctx, r, "monitor.latest", source, name)
}

func (r *remote) Series(ctx context.Context, source, name string, sinceSeconds float64) ([]MetricPoint, error) {
	return call[[]MetricPoint](ctx, r, "monitor.series", source, name, sinceSeconds)
}

func (r *remote) Metrics(ctx context.Context) ([]string, error) {
	return call[[]string](ctx, r, "monitor.metrics")
}

func (r *remote) Events(ctx context.Context, source string, sinceSeconds float64) ([]GridEvent, error) {
	return call[[]GridEvent](ctx, r, "monitor.events", source, sinceSeconds)
}

func (r *remote) Weather(ctx context.Context) ([]SiteWeather, error) {
	return call[[]SiteWeather](ctx, r, "monitor.sites")
}

// State.

func (r *remote) SetState(ctx context.Context, key, value string) error {
	return action(ctx, r, "state.set", key, value)
}

func (r *remote) GetState(ctx context.Context, key string) (string, error) {
	return call[string](ctx, r, "state.get", key)
}

func (r *remote) StateKeys(ctx context.Context) ([]string, error) {
	return call[[]string](ctx, r, "state.keys")
}

func (r *remote) DeleteState(ctx context.Context, key string) (bool, error) {
	return mutate[bool](ctx, r, "state.delete", key)
}
