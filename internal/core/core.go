// Package core assembles the complete Grid Analysis Environment: the
// simulated grid, one Condor-like execution service per site, the
// MonALISA repository and farm monitors, the Sphinx-like scheduler, and
// the paper's three resource management services (steering, job
// monitoring, estimators) hosted together on a Clarens web-service host.
//
// This is the public façade of the reproduction: commands, examples and
// experiments build a GAE from a Config and interact with it either
// in-process (the Go API) or over XML-RPC (the Clarens endpoint), exactly
// as Figure 1 of the paper draws the deployment.
package core

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/clarens"
	"repro/internal/condor"
	"repro/internal/durable"
	"repro/internal/estimator"
	"repro/internal/fairshare"
	"repro/internal/jobmon"
	"repro/internal/monalisa"
	"repro/internal/quota"
	"repro/internal/replica"
	"repro/internal/scheduler"
	"repro/internal/simgrid"
	"repro/internal/steering"
	"repro/internal/telemetry"
	"repro/pkg/gae"
)

// SiteSpec describes one computing site of the deployment.
type SiteSpec struct {
	Name  string
	Nodes int
	// Load is the background CPU load (default idle).
	Load simgrid.Load
	// CostPerCPUSecond configures the Quota & Accounting rate.
	CostPerCPUSecond float64
	// CostPerTransferMB prices data movement at this site. Besides
	// billing, it is what lets transfer charges reach the fair-share
	// state when Config.FairShare is enabled.
	CostPerTransferMB float64 `json:"-"`
}

// LinkSpec describes a network link between two sites.
type LinkSpec struct {
	A, B      string
	MBps      float64
	LatencyMS int
}

// UserSpec declares a Clarens user.
type UserSpec struct {
	Name     string
	Password string
	// Credits is the initial quota grant.
	Credits float64
	// Admin lets the user steer anyone's jobs.
	Admin bool
}

// Config describes a GAE deployment. Validate is its one check, and New
// runs it; LoadDeployment reads one from a JSON file, which holds Sites,
// Links and Users and none of the fields tagged json:"-".
type Config struct {
	// Seed is ignored: nothing in the simulator draws random numbers. The
	// field stays only because bench/ sets it, and goes with ROADMAP item
	// 4, the benchmark change.
	Seed int64 `json:"-"`

	Sites []SiteSpec
	Links []LinkSpec
	Users []UserSpec

	// MonitorInterval is the MonALISA farm sampling period (default 5s).
	MonitorInterval time.Duration `json:"-"`

	// FairShare, when non-nil, enables time-aware fair-share arbitration:
	// every pool orders idle jobs by effective priority, the scheduler
	// breaks site-selection ties by fair-share standing, and the transfer
	// component of quota charges folds into the shared usage state
	// (execution CPU is accounted by the pools themselves). The Clock
	// field may be left nil — the grid engine's simulated clock is used.
	FairShare *fairshare.Config `json:"-"`
}

// GAE is a fully wired Grid Analysis Environment. It is the one owner of
// the deployment's state: every entry into it — each call of a client's
// method rows (g.Client, the Clarens host's handlers, a federation's site
// hosts), Run and RunUntilDone, Checkpoint and CaptureState, and the
// recovery AttachStore runs — holds its one lock, and Run gives the lock
// up at every boundary it processes. The services below it and State,
// the users' session state, hold no lock of their own.
//
// The exported fields reach the services directly, around that lock: they
// are for single-goroutine use — building a deployment, experiments and
// examples that drive it on one goroutine — never beside a serving host
// or a Run on another goroutine.
type GAE struct {
	Grid      *simgrid.Grid
	MonALISA  *monalisa.Repository
	Scheduler *scheduler.Scheduler
	JobMon    *jobmon.Service
	Steering  *steering.Service
	Quota     *quota.Service
	FairShare *fairshare.Manager // nil unless Config.FairShare was set
	Clarens   *clarens.Server
	Transfer  *estimator.TransferEstimator
	Replicas  *replica.Catalog
	State     *clarens.StateStore

	// Telemetry is the deployment's metrics registry: every serving
	// layer (journaled RPCs, the durable store, pools, the scheduler)
	// records into it, and the Clarens host serves it at /metrics.
	Telemetry *telemetry.Registry

	obs   *rpcObserver         // per-method RPC handles over Telemetry
	trace *telemetry.TraceRing // recent RPC spans, served at /debug/rpcs

	// mu is the deployment's one lock. A call holds it from journal.Begin
	// to End — a mutation from the window lookup to the window record —
	// Run for one boundary at a time, Checkpoint and CaptureState across
	// the capture, so no mutation straddles a checkpoint (applied before
	// the capture but journaled after it — which replay would then apply
	// twice), and AttachStore across recovery. It guards every service's
	// state, State, store, idem and obs's table of handles.
	mu    sync.Mutex
	store *durable.Store
	idem  *idemWindow

	// durabilityLost fires (once) when a journal enqueue or fsync fails
	// after its mutation already applied in memory. From that moment the
	// live state is ahead of the durable state: a call applied while the
	// journal was broken is not in the idempotency window, so a continued
	// process would re-apply it on the client's retry and the next
	// checkpoint would persist both applications. The hook's job is to
	// crash the process so recovery replays the journal — which rolls
	// the un-journaled mutations back and keeps exactly-once intact.
	durabilityLossOnce sync.Once
	onDurabilityLoss   func(error)
}

// New builds a deployment from cfg. It panics with cfg.Validate's error
// when cfg is invalid, since a Config is programmer-authored (a file is
// checked as LoadDeployment reads it).
func New(cfg Config) *GAE {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	grid := simgrid.NewGrid(time.Second, cfg.Seed)
	repo := monalisa.NewRepository()
	q := quota.NewService()
	reg := telemetry.NewRegistry()
	g := &GAE{
		Grid:      grid,
		MonALISA:  repo,
		Quota:     q,
		Telemetry: reg,
		idem:      newIdemWindow(),
		obs:       newRPCObserver(reg),
		trace:     telemetry.NewTraceRing(0),
	}
	g.idem.setTelemetry(reg)

	// Sites, nodes, pools, in cfg.Sites order.
	pools := make([]*condor.Pool, len(cfg.Sites))
	for i, spec := range cfg.Sites {
		site := grid.AddSite(spec.Name)
		pool := condor.NewPool(spec.Name, grid, site)
		pool.SetTelemetry(reg)
		for i := 0; i < spec.Nodes; i++ {
			n := site.AddNode(grid.Engine, fmt.Sprintf("%s-n%d", spec.Name, i), 1, spec.Load)
			pool.AddMachine(n, nil)
		}
		pools[i] = pool
		q.SetRate(spec.Name, quota.Rate{
			CPUSecond:  spec.CostPerCPUSecond,
			TransferMB: spec.CostPerTransferMB,
		})
	}

	// Network.
	for _, l := range cfg.Links {
		grid.Network.Connect(l.A, l.B, simgrid.Link{
			BandwidthMBps: l.MBps,
			Latency:       time.Duration(l.LatencyMS) * time.Millisecond,
		})
	}

	// Monitoring.
	interval := cfg.MonitorInterval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	monalisa.NewFarmMonitor(repo, grid, interval)
	g.Transfer = &estimator.TransferEstimator{Network: grid.Network}
	g.Replicas = replica.NewCatalog()

	// Fair-share arbitration: one manager shared by every pool, the
	// scheduler, and the quota ledger, so accounting, execution, and
	// planning all see one fairness state.
	if cfg.FairShare != nil {
		fscfg := *cfg.FairShare
		if fscfg.Clock == nil {
			fscfg.Clock = grid.Engine.Clock()
		}
		g.FairShare = fairshare.NewManager(fscfg)
		for _, pool := range pools {
			pool.SetFairShare(g.FairShare)
		}
		q.Subscribe(func(c quota.Charge) {
			// The pools already record execution CPU at terminal state, and
			// deployments conventionally Charge for that same CPU — folding
			// c.CPUSeconds in here would double-count it. Only the transfer
			// component of the charge adds standing: one billed transfer
			// credit counts as one CPU-second. A site-rate-based conversion
			// would blow up as a site's CPU price approaches zero and would
			// re-read rates that may have changed since billing, while the
			// flat exchange is bounded, continuous, and derived purely from
			// the ledger entry.
			if c.TransferCredits > 0 {
				g.FairShare.RecordUsage(c.User, c.Site, c.TransferCredits)
			}
		})
	}

	// Scheduler with per-site decentralized estimator histories.
	g.Scheduler = scheduler.New(scheduler.Config{
		Grid:      grid,
		Monitor:   repo,
		Transfer:  g.Transfer,
		Replicas:  g.Replicas,
		FairShare: g.FairShare,
		Telemetry: reg,
	})
	for _, pool := range pools {
		g.Scheduler.RegisterSite(pool.Name, &scheduler.SiteServices{
			Pool:    pool,
			Runtime: estimator.NewRuntimeEstimator(estimator.NewHistory(0)),
		})
	}

	// Job monitoring.
	g.JobMon = jobmon.NewService(grid, repo)
	for _, pool := range pools {
		g.JobMon.Watch(pool)
	}

	// Steering.
	g.Steering = steering.New(steering.Config{
		Grid:      grid,
		Scheduler: g.Scheduler,
		Monitor:   g.JobMon,
		Quota:     q,
	})

	// Clarens host with every service registered.
	g.Clarens = clarens.NewServer("gae", grid.Engine.Clock())
	g.State = clarens.NewStateStore()
	for _, u := range cfg.Users {
		if err := g.Clarens.Users.Add(u.Name, u.Password); err != nil {
			panic(err)
		}
		if u.Credits > 0 {
			if err := q.Grant(u.Name, u.Credits); err != nil {
				panic(err)
			}
		}
		if u.Admin {
			g.Steering.Sessions.GrantAdmin(u.Name)
		}
	}
	g.registerServices()
	return g
}

// registerServices hosts the GAE services on the Clarens server and
// installs the paper's access policy: monitoring and estimates are
// readable by any authenticated user; steering requires authentication
// (per-job ownership is enforced by the Session Manager). The services
// are the same typed gae contract implementations local clients use,
// bound to the wire by their method rows.
func (g *GAE) registerServices() {
	srv := g.Clarens
	c := g.client(clarens.Caller)
	for _, svc := range []struct{ name, description string }{
		{"jobmon", "Job Monitoring Service (JMExecutable)"},
		{"steering", "Steering Service"},
		{"estimator", "Estimator Service (runtime, queue time, transfer time)"},
		{"quota", "Quota and Accounting Service"},
		{"scheduler", "Sphinx-like scheduling middleware"},
		{"replica", "Replica catalog (data location service)"},
		{"monitor", "MonALISA repository (Grid weather)"},
		{"state", "Analysis-session state store"},
	} {
		srv.RegisterService(svc.name, svc.description, gae.Handlers(svc.name, c))
		srv.ACL.Allow("authenticated", svc.name+".*")
	}

	// Observability endpoints, served as plain HTTP GET beside the
	// XML-RPC dispatcher. They bypass the session and drain checks on
	// purpose: a draining host must still answer /healthz (that is how a
	// balancer learns to stop routing) and /metrics (that is how the
	// drain is watched).
	srv.HandleHTTP("/metrics", telemetry.Handler(g.Telemetry))
	srv.HandleHTTP("/debug/rpcs", telemetry.TraceHandler(g.trace))
	srv.HandleHTTP("/healthz", http.HandlerFunc(g.healthz))
}

// Trace exposes the deployment's RPC trace ring (what /debug/rpcs
// serves).
func (g *GAE) Trace() *telemetry.TraceRing { return g.trace }

// PutDataset stores a dataset at a site's storage element and registers
// it in the replica catalog, making it stageable by name from any task.
func (g *GAE) PutDataset(site, name string, sizeMB float64) error {
	s := g.Grid.Site(site)
	if s == nil {
		return fmt.Errorf("core: unknown site %q", site)
	}
	if err := s.Storage().Put(name, sizeMB); err != nil {
		return err
	}
	return g.Replicas.Register(name, site, sizeMB)
}

// Pool returns a site's execution service, as the scheduler's site table
// holds it.
func (g *GAE) Pool(site string) (*condor.Pool, bool) {
	svc, ok := g.Scheduler.SiteServicesFor(site)
	if !ok {
		return nil, false
	}
	return svc.Pool, true
}

// Sites returns the deployment's site names, sorted.
func (g *GAE) Sites() []string { return g.Grid.SiteNames() }

// Start serves the Clarens host on addr (":0" for an ephemeral port) and
// returns its base URL.
func (g *GAE) Start(addr string) (string, error) { return g.Clarens.Start(addr) }

// Stop shuts the Clarens host down.
func (g *GAE) Stop() error { return g.Clarens.Stop() }

// Handler exposes the Clarens host for in-process HTTP testing.
func (g *GAE) Handler() http.Handler { return g.Clarens }

// RunUntilDone advances simulated time until the plan reaches a terminal
// state or max simulated time passes. It runs Engine.RunUntil under the
// deployment's lock and gives the lock up for a moment before each look
// at the plan, which comes after every boundary: it holds the lock for one
// boundary at a time, and looks at the plan under it.
func (g *GAE) RunUntilDone(cp *scheduler.ConcretePlan, max time.Duration) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.Grid.Engine.RunUntil(func() bool {
		g.mu.Unlock()
		g.mu.Lock()
		d, _ := cp.Done()
		return d
	}, max)
}

// Run advances simulated time by d, as Engine.RunFor does, holding the
// deployment's lock for one boundary at a time: a call waiting on the
// lock gets it between two boundaries.
func (g *GAE) Run(d time.Duration) {
	g.mu.Lock()
	limit := g.Grid.Engine.Horizon(d)
	g.mu.Unlock()
	for g.advance(limit) {
	}
}

// advance is one Engine.Advance under the deployment's lock.
func (g *GAE) advance(limit time.Time) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.Grid.Engine.Advance(limit)
}

// Now returns the current simulated time.
func (g *GAE) Now() time.Time { return g.Grid.Engine.Now() }
