package gae

import "context"

// Services bundles one implementation of every GAE service contract.
type Services struct {
	Scheduler Scheduler
	Steering  Steering
	JobMon    JobMon
	Estimator Estimator
	Quota     Quota
	Replica   Replica
	Monitor   Monitor
	State     State
}

// Client is the single façade over every GAE service. It satisfies the
// Scheduler, Steering, JobMon, Estimator, Quota, Replica, Monitor, and
// State interfaces, regardless of transport:
//
//   - local: core.GAE.Client(user) calls the in-process services — zero
//     serialization — each call run through the deployment's Journal;
//   - remote: Dial sends the calls to a Clarens XML-RPC endpoint.
//
// Each method calls its row (rows.go), which picks the transport.
type Client struct {
	services Services // the local transport's services
	journal  Journal  // runs the local transport's calls; nil runs them bare
	remote   *remote  // nil on the local transport
}

// NewClient assembles a local client over service implementations; j, if
// not nil, runs its calls. Deployments normally use
// core.GAE.Client (local) or Dial (remote) instead.
func NewClient(s Services, j Journal) *Client { return &Client{services: s, journal: j} }

// Close releases the client's session and idle connections: a remote
// client that logged in itself logs out of the Clarens host; a local
// client has nothing to release, and one riding a shared token from
// WithToken leaves the token valid for its other holders.
func (c *Client) Close(ctx context.Context) error {
	if c.remote == nil {
		return nil
	}
	defer c.remote.c.Close()
	if !c.remote.ownsSession || c.remote.c.Token() == "" {
		return nil
	}
	return c.remote.c.Logout(ctx)
}

func (c *Client) Submit(ctx context.Context, plan PlanSpec) (string, error) {
	return schedulerSubmit.call(c, ctx, plan)
}
func (c *Client) Plan(ctx context.Context, name string) (PlanStatus, error) {
	return schedulerPlan.call(c, ctx, name)
}
func (c *Client) Sites(ctx context.Context) ([]string, error) { return schedulerSites.call(c, ctx) }
func (c *Client) Jobs(ctx context.Context) ([]string, error)  { return steeringJobs.call(c, ctx) }
func (c *Client) TaskStatus(ctx context.Context, plan, task string) (SteeringStatus, error) {
	return steeringStatus.call(c, ctx, plan, task)
}
func (c *Client) Kill(ctx context.Context, plan, task string) error {
	return errOf(steeringKill.call(c, ctx, plan, task))
}
func (c *Client) Pause(ctx context.Context, plan, task string) error {
	return errOf(steeringPause.call(c, ctx, plan, task))
}
func (c *Client) Resume(ctx context.Context, plan, task string) error {
	return errOf(steeringResume.call(c, ctx, plan, task))
}
func (c *Client) Move(ctx context.Context, plan, task, site string) (MoveResult, error) {
	return steeringMove.call(c, ctx, plan, task, site)
}
func (c *Client) SetPriority(ctx context.Context, plan, task string, priority int) error {
	return errOf(steeringSetPriority.call(c, ctx, plan, task, priority))
}
func (c *Client) EstimateCompletion(ctx context.Context, plan, task string) (float64, error) {
	return steeringEstimate.call(c, ctx, plan, task)
}
func (c *Client) Notifications(ctx context.Context) ([]Notification, error) {
	return steeringNotices.call(c, ctx)
}
func (c *Client) Preference(ctx context.Context) (string, error) {
	return steeringPreference.call(c, ctx)
}
func (c *Client) SetPreference(ctx context.Context, preference string) (string, error) {
	return steeringSetPreference.call(c, ctx, preference)
}
func (c *Client) Job(ctx context.Context, pool string, id int) (JobInfo, error) {
	return jobmonInfo.call(c, ctx, pool, id)
}
func (c *Client) JobStatus(ctx context.Context, pool string, id int) (string, error) {
	return jobmonStatus.call(c, ctx, pool, id)
}
func (c *Client) JobProgress(ctx context.Context, pool string, id int) (float64, error) {
	return jobmonProgress.call(c, ctx, pool, id)
}
func (c *Client) JobWallclock(ctx context.Context, pool string, id int) (float64, error) {
	return jobmonWallclock.call(c, ctx, pool, id)
}
func (c *Client) JobElapsed(ctx context.Context, pool string, id int) (float64, error) {
	return jobmonElapsed.call(c, ctx, pool, id)
}
func (c *Client) JobRemaining(ctx context.Context, pool string, id int) (float64, error) {
	return jobmonRemaining.call(c, ctx, pool, id)
}
func (c *Client) JobQueuePosition(ctx context.Context, pool string, id int) (int, error) {
	return jobmonQueuePosition.call(c, ctx, pool, id)
}
func (c *Client) JobList(ctx context.Context, pool string) ([]JobInfo, error) {
	return jobmonList.call(c, ctx, pool)
}
func (c *Client) Pools(ctx context.Context) ([]string, error) { return jobmonPools.call(c, ctx) }
func (c *Client) EstimateRuntime(ctx context.Context, site string, task TaskProfile) (RuntimeEstimate, error) {
	return estimatorRuntime.call(c, ctx, site, task)
}
func (c *Client) EstimateQueueTime(ctx context.Context, site string, condorID int) (QueueEstimate, error) {
	return estimatorQueueTime.call(c, ctx, site, condorID)
}
func (c *Client) EstimateTransfer(ctx context.Context, src, dst string, sizeMB float64) (TransferEstimate, error) {
	return estimatorTransfer.call(c, ctx, src, dst, sizeMB)
}
func (c *Client) Balance(ctx context.Context) (float64, error) { return quotaBalance.call(c, ctx) }
func (c *Client) Cost(ctx context.Context, site string, cpuSeconds, mb float64) (float64, error) {
	return quotaCost.call(c, ctx, site, cpuSeconds, mb)
}
func (c *Client) Cheapest(ctx context.Context, sites []string, cpuSeconds, mb float64) (CostQuote, error) {
	return quotaCheapest.call(c, ctx, sites, cpuSeconds, mb)
}
func (c *Client) Grant(ctx context.Context, user string, credits float64) error {
	return errOf(quotaGrant.call(c, ctx, user, credits))
}
func (c *Client) ChargeUsage(ctx context.Context, req ChargeRequest) (float64, error) {
	return quotaCharge.call(c, ctx, req)
}
func (c *Client) Datasets(ctx context.Context) ([]string, error) { return replicaDatasets.call(c, ctx) }
func (c *Client) Replicas(ctx context.Context, dataset string) ([]ReplicaLocation, error) {
	return replicaLocations.call(c, ctx, dataset)
}
func (c *Client) RegisterReplica(ctx context.Context, dataset, site string, sizeMB float64) error {
	return errOf(replicaRegister.call(c, ctx, dataset, site, sizeMB))
}
func (c *Client) BestReplica(ctx context.Context, dataset, dstSite string) (ReplicaChoice, error) {
	return replicaBest.call(c, ctx, dataset, dstSite)
}
func (c *Client) Latest(ctx context.Context, source, name string) (float64, error) {
	return monitorLatest.call(c, ctx, source, name)
}
func (c *Client) Series(ctx context.Context, source, name string, sinceSeconds float64) ([]MetricPoint, error) {
	return monitorSeries.call(c, ctx, source, name, sinceSeconds)
}
func (c *Client) Metrics(ctx context.Context) ([]string, error) { return monitorMetrics.call(c, ctx) }
func (c *Client) Events(ctx context.Context, source string, sinceSeconds float64) ([]GridEvent, error) {
	return monitorEvents.call(c, ctx, source, sinceSeconds)
}
func (c *Client) Weather(ctx context.Context) ([]SiteWeather, error) {
	return monitorSites.call(c, ctx)
}
func (c *Client) SetState(ctx context.Context, key, value string) error {
	return errOf(stateSet.call(c, ctx, key, value))
}
func (c *Client) GetState(ctx context.Context, key string) (string, error) {
	return stateGet.call(c, ctx, key)
}
func (c *Client) StateKeys(ctx context.Context) ([]string, error) { return stateKeys.call(c, ctx) }
func (c *Client) DeleteState(ctx context.Context, key string) (bool, error) {
	return stateDelete.call(c, ctx, key)
}
