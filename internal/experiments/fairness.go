package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/classad"
	"repro/internal/condor"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
	"repro/internal/workload"
)

// FairnessConfig parameterizes a multi-tenant fairness replay: one of the
// built-in workload scenarios executed on the simulated grid, with the
// fair-share subsystem either arbitrating the queue or (the ablation)
// switched off so the seed's static-priority/FIFO negotiation runs.
type FairnessConfig struct {
	// Scenario names a workload.FairnessScenarios entry.
	Scenario string
	// Ticks overrides the scenario's horizon (1 tick = 1 simulated
	// second); zero keeps the scenario default.
	Ticks int
	// FairShare installs the fair-share policy on every pool. False is
	// the ablation: static priority with FIFO, no usage feedback.
	FairShare bool
	// HalfLife overrides the usage decay half-life (zero: fairshare
	// default; negative: decay disabled).
	HalfLife time.Duration
	// StarvationWindow overrides the starvation guard (zero: default;
	// negative: guard disabled).
	StarvationWindow time.Duration
	// SampleEvery is the allocation-history sampling period in ticks
	// (default 5).
	SampleEvery int
}

// FairnessRow is one tenant's allocation sample at one tick.
type FairnessRow struct {
	Tick              int
	Tenant            string
	Group             string
	Running           int
	Idle              int
	CompletedJobs     int
	CompletedCPU      float64 // cumulative CPU-seconds of completed jobs
	DecayedUsage      float64 // 0 when fair-share is disabled
	EffectivePriority float64 // 0 when fair-share is disabled
}

// FairnessOutcome summarizes one tenant over the whole run.
type FairnessOutcome struct {
	Tenant              string
	Group               string
	Weight              float64
	SubmittedJobs       int
	CompletedJobs       int
	CompletedCPU        float64
	FirstCompletionTick int // -1 if the tenant never completed a job
}

// FairnessResult is the replay's full output: the per-tick allocation
// history, per-tenant outcomes, and the headline fairness metrics over
// entitlement-normalized completed CPU-seconds.
type FairnessResult struct {
	Scenario  string
	FairShare bool
	Ticks     int
	History   []FairnessRow
	Outcomes  []FairnessOutcome // sorted by tenant name
	// JainIndex is Jain's fairness index over completed CPU-seconds
	// divided by entitlement: 1 is perfectly weight-proportional.
	JainIndex float64
	// MinShare is the worst-off tenant's entitlement-normalized share
	// relative to the mean: 0 means a tenant was fully starved.
	MinShare float64
}

// CSV renders the allocation history with a header, one row per sampled
// tick per tenant — the gae-sim output format.
func (r *FairnessResult) CSV() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# scenario=%s fairshare=%v ticks=%d jain=%.4f min_share=%.4f\n",
		r.Scenario, r.FairShare, r.Ticks, r.JainIndex, r.MinShare)
	sb.WriteString("tick,tenant,group,running,idle,completed_jobs,completed_cpu_seconds,decayed_usage,effective_priority\n")
	for _, row := range r.History {
		fmt.Fprintf(&sb, "%d,%s,%s,%d,%d,%d,%g,%.6g,%.6g\n",
			row.Tick, row.Tenant, row.Group, row.Running, row.Idle,
			row.CompletedJobs, row.CompletedCPU, row.DecayedUsage, row.EffectivePriority)
	}
	return sb.String()
}

// Summary renders the per-tenant outcomes as an aligned text block.
func (r *FairnessResult) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s (fairshare=%v, %d ticks): Jain index %.4f, min share %.4f\n",
		r.Scenario, r.FairShare, r.Ticks, r.JainIndex, r.MinShare)
	for _, o := range r.Outcomes {
		first := "never"
		if o.FirstCompletionTick >= 0 {
			first = fmt.Sprintf("t=%d", o.FirstCompletionTick)
		}
		fmt.Fprintf(&sb, "  %-10s group=%-8s weight=%g jobs %d/%d cpu=%.0fs first completion %s\n",
			o.Tenant, o.Group, o.Weight, o.CompletedJobs, o.SubmittedJobs, o.CompletedCPU, first)
	}
	return sb.String()
}

// Fairness replays a multi-tenant scenario and measures who actually got
// the machines. Everything runs on the virtual clock: a 900-second
// scenario finishes in milliseconds of wall time, and the emitted history
// is deterministic for a given configuration.
func Fairness(cfg FairnessConfig) (*FairnessResult, error) {
	sc, ok := workload.FairnessScenarioByName(cfg.Scenario)
	if !ok {
		names := make([]string, 0)
		for _, s := range workload.FairnessScenarios() {
			names = append(names, s.Name)
		}
		return nil, fmt.Errorf("experiments: unknown fairness scenario %q (have %s)",
			cfg.Scenario, strings.Join(names, ", "))
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	ticks := cfg.Ticks
	if ticks <= 0 {
		ticks = sc.Ticks
	}
	sample := cfg.SampleEvery
	if sample <= 0 {
		sample = 5
	}

	grid := simgrid.NewGrid(time.Second, 0)
	site := grid.AddSite("siteA")
	pool := condor.NewPool("siteA", grid, site)
	for i := 0; i < sc.Machines; i++ {
		n := site.AddNode(grid.Engine, fmt.Sprintf("siteA-n%d", i), 1, nil)
		pool.AddMachine(n, nil)
	}
	if sc.FlockMachines > 0 {
		peerSite := grid.AddSite("siteB")
		peer := condor.NewPool("siteB", grid, peerSite)
		for i := 0; i < sc.FlockMachines; i++ {
			n := peerSite.AddNode(grid.Engine, fmt.Sprintf("siteB-n%d", i), 1, nil)
			peer.AddMachine(n, nil)
		}
		pool.EnableFlocking(peer)
	}

	var fs *fairshare.Manager
	if cfg.FairShare {
		fs = fairshare.NewManager(fairshare.Config{
			Clock:            grid.Engine.Clock(),
			HalfLife:         cfg.HalfLife,
			StarvationWindow: cfg.StarvationWindow,
		})
		for _, g := range sc.Groups {
			fs.SetGroup(g.Name, g.Weight)
		}
		for _, t := range sc.Tenants {
			fs.SetTenant(t.Name, t.Group, t.Weight)
		}
		pool.SetFairShare(fs)
	}

	// Per-tenant bookkeeping, fed by pool completion events.
	type jobMeta struct {
		tenant string
		cpu    float64
	}
	meta := make(map[int]jobMeta)
	epoch := grid.Engine.Now()
	completedCPU := make(map[string]float64)
	completedJobs := make(map[string]int)
	submitted := make(map[string]int)
	firstDone := make(map[string]int)
	pool.Subscribe(func(e condor.Event) {
		if e.To != condor.StatusCompleted {
			return
		}
		m, ok := meta[e.JobID]
		if !ok {
			return
		}
		completedCPU[m.tenant] += m.cpu
		completedJobs[m.tenant]++
		if _, seen := firstDone[m.tenant]; !seen {
			firstDone[m.tenant] = int(e.At.Sub(epoch) / time.Second)
		}
	})

	groupOf := make(map[string]string)
	for _, t := range sc.Tenants {
		g := t.Group
		if g == "" {
			g = "default"
		}
		groupOf[t.Name] = g
	}

	res := &FairnessResult{Scenario: sc.Name, FairShare: cfg.FairShare, Ticks: ticks}
	snapshot := func(tick int) {
		running := make(map[string]int)
		idle := make(map[string]int)
		jobs, err := pool.Jobs()
		if err == nil {
			for _, j := range jobs {
				switch j.Status {
				case condor.StatusRunning:
					running[j.Owner]++
				case condor.StatusIdle:
					idle[j.Owner]++
				}
			}
		}
		for _, t := range sc.Tenants {
			row := FairnessRow{
				Tick:          tick,
				Tenant:        t.Name,
				Group:         groupOf[t.Name],
				Running:       running[t.Name],
				Idle:          idle[t.Name],
				CompletedJobs: completedJobs[t.Name],
				CompletedCPU:  completedCPU[t.Name],
			}
			if fs != nil {
				row.DecayedUsage = fs.Usage(t.Name)
				row.EffectivePriority = fs.EffectivePriority(t.Name)
			}
			res.History = append(res.History, row)
		}
	}

	subs := sc.Submissions()
	si := 0
	for tick := 0; tick < ticks; tick++ {
		for si < len(subs) && subs[si].Tick <= tick {
			sub := subs[si]
			ad := classad.New().
				Set(condor.AttrOwner, sub.Tenant).
				Set(condor.AttrCpuSeconds, sub.CPUSeconds).
				Set(condor.AttrPriority, sub.Priority)
			id, err := pool.Submit(ad)
			if err != nil {
				return nil, fmt.Errorf("experiments: fairness submit: %w", err)
			}
			meta[id] = jobMeta{tenant: sub.Tenant, cpu: sub.CPUSeconds}
			submitted[sub.Tenant]++
			si++
		}
		grid.Engine.Step()
		if tick%sample == 0 || tick == ticks-1 {
			snapshot(tick)
		}
	}

	// Entitlements: group share by group weight, split within the group
	// by tenant weight.
	groupWeight := make(map[string]float64)
	for _, g := range sc.Groups {
		groupWeight[g.Name] = g.Weight
	}
	tenantsInGroup := make(map[string]float64) // summed tenant weights
	for _, t := range sc.Tenants {
		tenantsInGroup[groupOf[t.Name]] += t.Weight
	}
	totalGroupWeight := 0.0
	for g := range tenantsInGroup {
		w := groupWeight[g]
		if w <= 0 {
			w = 1
		}
		groupWeight[g] = w
		totalGroupWeight += w
	}

	var normalized []float64
	for _, t := range sc.Tenants {
		g := groupOf[t.Name]
		ent := (groupWeight[g] / totalGroupWeight) * (t.Weight / tenantsInGroup[g])
		o := FairnessOutcome{
			Tenant:              t.Name,
			Group:               g,
			Weight:              t.Weight,
			SubmittedJobs:       submitted[t.Name],
			CompletedJobs:       completedJobs[t.Name],
			CompletedCPU:        completedCPU[t.Name],
			FirstCompletionTick: -1,
		}
		if ft, ok := firstDone[t.Name]; ok {
			o.FirstCompletionTick = ft
		}
		res.Outcomes = append(res.Outcomes, o)
		normalized = append(normalized, o.CompletedCPU/ent)
	}
	sort.Slice(res.Outcomes, func(i, j int) bool {
		return res.Outcomes[i].Tenant < res.Outcomes[j].Tenant
	})
	res.JainIndex = fairshare.JainIndex(normalized)
	res.MinShare = fairshare.MinShare(normalized)
	return res, nil
}
