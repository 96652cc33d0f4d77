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

// sampleEvery is the allocation-history sampling period in ticks.
const sampleEvery = 5

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

// Fairness replays a multi-tenant scenario for sc.Ticks ticks and
// measures who actually got the machines: with fairShare the fair-share
// policy arbitrates every pool; without it (the ablation) the seed's
// static-priority/FIFO negotiation runs, with no usage feedback.
// Everything runs on the virtual clock: a 900-second scenario finishes
// in milliseconds of wall time, and the emitted history is
// deterministic for a given scenario.
func Fairness(sc workload.FairnessScenario, fairShare bool) (*FairnessResult, error) {
	grid := simgrid.NewGrid(time.Second, 0)
	addPool := func(name string, machines int) *condor.Pool {
		site := grid.AddSite(name)
		p := condor.NewPool(name, grid, site)
		for i := 0; i < machines; i++ {
			p.AddMachine(site.AddNode(grid.Engine, fmt.Sprintf("%s-n%d", name, i), 1, nil), nil)
		}
		return p
	}
	pool := addPool("siteA", sc.Machines)
	if sc.FlockMachines > 0 {
		pool.EnableFlocking(addPool("siteB", sc.FlockMachines))
	}

	var fs *fairshare.Manager
	if fairShare {
		fs = fairshare.NewManager(fairshare.Config{
			Clock:            grid.Engine.Clock(),
			HalfLife:         time.Duration(sc.HalfLifeSeconds * float64(time.Second)),
			StarvationWindow: time.Duration(sc.StarvationWindowSeconds * float64(time.Second)),
		})
		for _, g := range sc.Groups {
			fs.SetGroup(g.Name, g.Weight)
		}
		for _, t := range sc.Tenants {
			fs.SetTenant(t.Name, t.Group, t.Weight)
		}
		pool.SetFairShare(fs)
	}

	// Per-tenant tallies in declaration order, fed by pool completion
	// events; sorted by name into the result's outcomes at the end.
	out := make([]FairnessOutcome, len(sc.Tenants))
	for i, t := range sc.Tenants {
		g := t.Group
		if g == "" {
			g = "default"
		}
		out[i] = FairnessOutcome{Tenant: t.Name, Group: g, Weight: t.Weight, FirstCompletionTick: -1}
	}
	tenantOf := make(map[int]int) // job ID → tenant index
	epoch := grid.Engine.Now()
	pool.Subscribe(func(e condor.Event) {
		i, ok := tenantOf[e.JobID]
		if e.To != condor.StatusCompleted || !ok {
			return
		}
		o := &out[i]
		o.CompletedJobs++
		o.CompletedCPU += sc.Tenants[i].JobCPUSeconds
		if o.FirstCompletionTick < 0 {
			o.FirstCompletionTick = int(e.At.Sub(epoch) / time.Second)
		}
	})

	res := &FairnessResult{Scenario: sc.Name, FairShare: fairShare, Ticks: sc.Ticks}
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
		for i, t := range sc.Tenants {
			row := FairnessRow{
				Tick:          tick,
				Tenant:        t.Name,
				Group:         out[i].Group,
				Running:       running[t.Name],
				Idle:          idle[t.Name],
				CompletedJobs: out[i].CompletedJobs,
				CompletedCPU:  out[i].CompletedCPU,
			}
			if fs != nil {
				row.DecayedUsage = fs.Usage(t.Name)
				row.EffectivePriority = fs.EffectivePriority(t.Name)
			}
			res.History = append(res.History, row)
		}
	}

	for tick := 0; tick < sc.Ticks; tick++ {
		for i, t := range sc.Tenants {
			for n := t.ArrivalsAt(tick); n > 0; n-- {
				ad := classad.New().
					Set(condor.AttrOwner, t.Name).
					Set(condor.AttrCpuSeconds, t.JobCPUSeconds).
					Set(condor.AttrPriority, t.Priority)
				id, err := pool.Submit(ad)
				if err != nil {
					return nil, fmt.Errorf("experiments: fairness submit: %w", err)
				}
				tenantOf[id] = i
				out[i].SubmittedJobs++
			}
		}
		grid.Engine.Step()
		if tick%sampleEvery == 0 || tick == sc.Ticks-1 {
			snapshot(tick)
		}
	}

	// Entitlements: group share by group weight (1 for a group the
	// scenario does not weigh), split within the group by tenant weight.
	groupWeight := make(map[string]float64)
	for _, g := range sc.Groups {
		groupWeight[g.Name] = g.Weight
	}
	tenantWeight := make(map[string]float64) // summed over the group's tenants
	totalGroupWeight := 0.0
	for _, o := range out {
		if _, seen := tenantWeight[o.Group]; !seen {
			if groupWeight[o.Group] <= 0 {
				groupWeight[o.Group] = 1
			}
			totalGroupWeight += groupWeight[o.Group]
		}
		tenantWeight[o.Group] += o.Weight
	}
	normalized := make([]float64, len(out))
	for i, o := range out {
		ent := (groupWeight[o.Group] / totalGroupWeight) * (o.Weight / tenantWeight[o.Group])
		normalized[i] = o.CompletedCPU / ent
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	res.Outcomes = out
	res.JainIndex = fairshare.JainIndex(normalized)
	res.MinShare = fairshare.MinShare(normalized)
	return res, nil
}
