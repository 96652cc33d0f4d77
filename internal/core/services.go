package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/estimator"
	"repro/internal/scheduler"
	"repro/pkg/gae"
)

// This file binds the wired deployment to the typed service contracts of
// pkg/gae. One implementation per paper service; the same bindings serve
// both transports: registerServices hosts them on the Clarens endpoint
// through the method rows, and GAE.Client hands them to a
// zero-serialization local client.

// Client returns a local-transport gae.Client acting as user: every call
// goes straight into the in-process services, no serialization involved.
func (g *GAE) Client(user string) *gae.Client {
	return g.client(func(context.Context) string { return user })
}

// client assembles a local client over the services, acting as userOf
// resolves, whose mutating calls are journaled to the attached durable
// store (only ordered, deduplicated and traced while none is attached).
func (g *GAE) client(userOf gae.UserResolver) *gae.Client {
	return gae.NewClient(g.services(userOf), &journal{g: g, userOf: userOf})
}

// services assembles the unjournaled contract implementations.
func (g *GAE) services(userOf gae.UserResolver) gae.Services {
	return gae.Services{
		Scheduler: schedulerAPI{g: g, userOf: userOf},
		Steering:  g.Steering.API(userOf),
		JobMon:    g.JobMon.API(),
		Estimator: estimatorAPI{g: g},
		Quota:     quotaAPI{g: g, userOf: userOf},
		Replica:   replicaAPI{g: g},
		Monitor:   monitorAPI{g: g},
		State:     stateAPI{g: g, userOf: userOf},
	}
}

// PlanSpecOf gives an abstract job plan its API representation — the
// inverse of planFromSpec, used by typed submit clients and tests.
func PlanSpecOf(plan *scheduler.JobPlan) gae.PlanSpec {
	return gae.PlanSpec{Name: plan.Name, Tasks: cloneTasks(plan.Tasks)}
}

// planFromSpec builds a validated scheduler plan owned by owner.
func planFromSpec(spec gae.PlanSpec, owner string) (*scheduler.JobPlan, error) {
	plan := &scheduler.JobPlan{Name: spec.Name, Owner: owner, Tasks: cloneTasks(spec.Tasks)}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// cloneTasks copies tasks so the copy shares no slice with them. An empty
// dependency or input list becomes nil, which is how a snapshot encodes
// it.
func cloneTasks(tasks []gae.TaskSpec) []gae.TaskSpec {
	out := make([]gae.TaskSpec, len(tasks))
	for i, t := range tasks {
		t.DependsOn = append([]string(nil), t.DependsOn...)
		t.Inputs = append([]gae.FileSpec(nil), t.Inputs...)
		out[i] = t
	}
	return out
}

// taskRecord builds an estimator covariate record from a task profile.
func taskRecord(p gae.TaskProfile) estimator.TaskRecord {
	return estimator.TaskRecord{
		Queue:     p.Queue,
		Partition: p.Partition,
		Nodes:     p.Nodes,
		JobType:   p.JobType,
		ReqHours:  p.ReqHours,
	}
}

// schedulerAPI exposes plan submission and tracking. The plan owner is
// always the acting user; clients cannot submit on someone else's
// account.
type schedulerAPI struct {
	g      *GAE
	userOf gae.UserResolver
}

func (s schedulerAPI) Submit(ctx context.Context, spec gae.PlanSpec) (string, error) {
	user := s.userOf(ctx)
	if user == "" {
		return "", gae.ErrNoSession
	}
	plan, err := planFromSpec(spec, user)
	if err != nil {
		return "", err
	}
	if _, err := s.g.Scheduler.Submit(plan); err != nil {
		return "", err
	}
	return plan.Name, nil
}

func (s schedulerAPI) Plan(_ context.Context, name string) (gae.PlanStatus, error) {
	cp, ok := s.g.Scheduler.Plan(name)
	if !ok {
		return gae.PlanStatus{}, fmt.Errorf("no plan %q", name)
	}
	done, succeeded := cp.Done()
	out := gae.PlanStatus{
		Name:      cp.Plan.Name,
		Owner:     cp.Plan.Owner,
		Done:      done,
		Succeeded: succeeded,
		Tasks:     make([]gae.TaskAssignment, 0, len(cp.Plan.Tasks)),
	}
	for _, a := range cp.Assignments() {
		out.Tasks = append(out.Tasks, gae.TaskAssignment{
			Task:     a.TaskID,
			Site:     a.Site,
			CondorID: a.CondorID,
			State:    a.State.String(),
			Attempts: a.Attempts,
		})
	}
	return out, nil
}

func (s schedulerAPI) Sites(context.Context) ([]string, error) {
	return s.g.Scheduler.Sites(), nil
}

// estimatorAPI exposes the Estimator Service.
type estimatorAPI struct {
	g *GAE
}

func (e estimatorAPI) EstimateRuntime(_ context.Context, site string, task gae.TaskProfile) (gae.RuntimeEstimate, error) {
	svc, ok := e.g.Scheduler.SiteServicesFor(site)
	if !ok {
		return gae.RuntimeEstimate{}, fmt.Errorf("unknown site %q", site)
	}
	est, err := svc.Runtime.Estimate(taskRecord(task))
	if err != nil {
		return gae.RuntimeEstimate{}, err
	}
	return gae.RuntimeEstimate{
		Seconds:   est.Seconds,
		Similar:   est.Similar,
		Statistic: est.Statistic.String(),
	}, nil
}

func (e estimatorAPI) EstimateQueueTime(_ context.Context, site string, condorID int) (gae.QueueEstimate, error) {
	pool, ok := e.g.Pool(site)
	if !ok {
		return gae.QueueEstimate{}, fmt.Errorf("unknown site %q", site)
	}
	return estimator.QueueTime(pool, condorID)
}

func (e estimatorAPI) EstimateTransfer(_ context.Context, src, dst string, sizeMB float64) (gae.TransferEstimate, error) {
	return e.g.Transfer.Estimate(src, dst, sizeMB)
}

// quotaAPI exposes the Quota and Accounting Service.
type quotaAPI struct {
	g      *GAE
	userOf gae.UserResolver
}

func (q quotaAPI) Balance(ctx context.Context) (float64, error) {
	user := q.userOf(ctx)
	if user == "" {
		return 0, gae.ErrNoSession
	}
	return q.g.Quota.Balance(user)
}

func (q quotaAPI) Cost(_ context.Context, site string, cpuSeconds, mb float64) (float64, error) {
	return q.g.Quota.Cost(site, cpuSeconds, mb)
}

func (q quotaAPI) Cheapest(_ context.Context, sites []string, cpuSeconds, mb float64) (gae.CostQuote, error) {
	site, cost, err := q.g.Quota.CheapestSite(sites, cpuSeconds, mb)
	if err != nil {
		return gae.CostQuote{}, err
	}
	return gae.CostQuote{Site: site, Cost: cost}, nil
}

// admin resolves the acting user and requires administrator standing —
// granting and charging move other users' credits.
func (q quotaAPI) admin(ctx context.Context) error {
	actor := q.userOf(ctx)
	if actor == "" {
		return gae.ErrNoSession
	}
	if !q.g.Steering.Sessions.IsAdmin(actor) {
		return fmt.Errorf("quota: %q is not an administrator", actor)
	}
	return nil
}

func (q quotaAPI) Grant(ctx context.Context, user string, credits float64) error {
	if err := q.admin(ctx); err != nil {
		return err
	}
	if user == "" {
		return fmt.Errorf("quota: grant for empty user")
	}
	return q.g.Quota.Grant(user, credits)
}

func (q quotaAPI) ChargeUsage(ctx context.Context, req gae.ChargeRequest) (float64, error) {
	if err := q.admin(ctx); err != nil {
		return 0, err
	}
	return q.g.Quota.Charge(req.User, req.Site, req.CPUSeconds, req.MB, q.g.Now(), req.Note)
}

// replicaAPI exposes the replica catalog (the data location service).
type replicaAPI struct {
	g *GAE
}

func (r replicaAPI) Datasets(context.Context) ([]string, error) {
	return r.g.Replicas.Datasets(), nil
}

func (r replicaAPI) Replicas(_ context.Context, dataset string) ([]gae.ReplicaLocation, error) {
	locs := r.g.Replicas.Locations(dataset)
	out := make([]gae.ReplicaLocation, len(locs))
	for i, l := range locs {
		out[i] = gae.ReplicaLocation{Site: l.Site, SizeMB: l.SizeMB}
	}
	return out, nil
}

// RegisterReplica records a replica at one of the deployment's sites; a
// catalog entry anywhere else could not be restored.
func (r replicaAPI) RegisterReplica(_ context.Context, dataset, site string, sizeMB float64) error {
	if r.g.Grid.Site(site) == nil {
		return fmt.Errorf("core: unknown site %q", site)
	}
	return r.g.Replicas.Register(dataset, site, sizeMB)
}

func (r replicaAPI) BestReplica(_ context.Context, dataset, dstSite string) (gae.ReplicaChoice, error) {
	loc, sec, err := r.g.Replicas.Best(r.g.Transfer, dataset, dstSite)
	if err != nil {
		return gae.ReplicaChoice{}, err
	}
	return gae.ReplicaChoice{Site: loc.Site, SizeMB: loc.SizeMB, TransferSeconds: sec}, nil
}

// monitorAPI exposes the MonALISA repository — the "Grid weather" the
// paper promises users.
type monitorAPI struct {
	g *GAE
}

func (m monitorAPI) Latest(_ context.Context, source, name string) (float64, error) {
	pt, ok := m.g.MonALISA.Latest(source, name)
	if !ok {
		return 0, fmt.Errorf("no metric %s/%s", source, name)
	}
	return pt.Value, nil
}

func (m monitorAPI) Series(_ context.Context, source, name string, sinceSeconds float64) ([]gae.MetricPoint, error) {
	now := m.g.Now()
	from := now.Add(-time.Duration(sinceSeconds * float64(time.Second)))
	pts := m.g.MonALISA.Series(source, name, from, now)
	out := make([]gae.MetricPoint, len(pts))
	for i, pt := range pts {
		out[i] = gae.MetricPoint{Time: pt.Time, Value: pt.Value}
	}
	return out, nil
}

func (m monitorAPI) Metrics(context.Context) ([]string, error) {
	ms := m.g.MonALISA.Metrics()
	out := make([]string, len(ms))
	for i, metric := range ms {
		out[i] = metric.String()
	}
	return out, nil
}

func (m monitorAPI) Events(_ context.Context, source string, sinceSeconds float64) ([]gae.GridEvent, error) {
	from := m.g.Now().Add(-time.Duration(sinceSeconds * float64(time.Second)))
	evs := m.g.MonALISA.Events(from, source)
	out := make([]gae.GridEvent, len(evs))
	for i, e := range evs {
		out[i] = gae.GridEvent{Time: e.Time, Kind: e.Kind, Detail: e.Detail}
	}
	return out, nil
}

func (m monitorAPI) Weather(context.Context) ([]gae.SiteWeather, error) {
	var out []gae.SiteWeather
	for _, site := range m.g.Grid.Sites() {
		out = append(out, gae.SiteWeather{
			Site:    site.Name,
			Load:    m.g.MonALISA.LatestValue(site.Name, "LoadAvg", 0),
			Running: m.g.MonALISA.LatestValue(site.Name, "RunningJobs", 0),
			Free:    m.g.MonALISA.LatestValue(site.Name, "FreeNodes", 0),
		})
	}
	return out, nil
}

// stateAPI exposes the per-user analysis-session state store. Keys are
// private to the acting user.
type stateAPI struct {
	g      *GAE
	userOf gae.UserResolver
}

func (s stateAPI) user(ctx context.Context) (string, error) {
	user := s.userOf(ctx)
	if user == "" {
		return "", gae.ErrNoSession
	}
	return user, nil
}

func (s stateAPI) SetState(ctx context.Context, key, value string) error {
	user, err := s.user(ctx)
	if err != nil {
		return err
	}
	return s.g.State.Set(user, key, value)
}

func (s stateAPI) GetState(ctx context.Context, key string) (string, error) {
	user, err := s.user(ctx)
	if err != nil {
		return "", err
	}
	v, ok := s.g.State.Get(user, key)
	if !ok {
		return "", fmt.Errorf("no state key %q", key)
	}
	return v, nil
}

func (s stateAPI) StateKeys(ctx context.Context) ([]string, error) {
	user, err := s.user(ctx)
	if err != nil {
		return nil, err
	}
	return s.g.State.Keys(user), nil
}

func (s stateAPI) DeleteState(ctx context.Context, key string) (bool, error) {
	user, err := s.user(ctx)
	if err != nil {
		return false, err
	}
	return s.g.State.Delete(user, key), nil
}
