package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/simgrid"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// The steering-rescue scenario's fixed shape. The job is the paper's
// prime-number program, 283 s on an unloaded CPU (workload.PrimeJobCPUSeconds).
const (
	// fig7SiteALoad is the background load that develops at the job's
	// first site (paper: "significant CPU load"; ~0.7 reproduces the
	// observed ~0.3 progress rate).
	fig7SiteALoad = 0.7
	// fig7LoadStep is when that load develops, after the job has started
	// there.
	fig7LoadStep = 2 * time.Second
	// fig7SampleEvery is the progress-sampling period (paper's chart uses
	// ≈28.3 s ticks; 5 s gives a smoother series).
	fig7SampleEvery = 5 * time.Second
	// fig7Horizon bounds the simulation.
	fig7Horizon = 1000 * time.Second
)

// Fig7Config parameterizes the steering-rescue experiment; the zero value
// is the paper's scenario.
type Fig7Config struct {
	// PollInterval tunes the steering service's poll period; zero keeps
	// the default (10 s).
	PollInterval time.Duration
	// DisableSteering runs the control experiment: the job stays at the
	// loaded site (used by the ablation bench).
	DisableSteering bool
	// Checkpointable enables the paper's stated improvement: "the job can
	// be completed even quicker than 369 seconds if it is checkpoint-able
	// and flocking is enabled" — the migrated job resumes from its
	// accumulated CPU work instead of restarting.
	Checkpointable bool
}

// Fig7Result carries both progress series and the headline times.
type Fig7Result struct {
	Table *Table
	// SteeredDone is when the steered job finished (zero if never).
	SteeredDone time.Duration
	// UnsteeredDone is when the site-A copy finished (zero if not within
	// the horizon — the paper's chart also ends before site A finishes).
	UnsteeredDone time.Duration
	// MovedAt is when the steering service redirected the job.
	MovedAt time.Duration
	// Estimate is the free-CPU completion estimate (the paper's dashed
	// 283 s line).
	Estimate float64
}

// Fig7 reproduces "Job Completion at different sites": a prime-counting
// job lands on site A, which then develops significant CPU load; the
// steering service detects the slow execution rate through the job
// monitoring service and reschedules the job to an idle site B, while a
// copy left at site A (the paper kept the original running "for testing
// purposes") crawls along. Progress is measured exactly as the paper
// measured it: accumulated Condor wall-clock divided by the free-CPU
// estimate.
func Fig7(cfg Fig7Config) (*Fig7Result, error) {
	const freeCPU = workload.PrimeJobCPUSeconds
	// Site A develops significant CPU load on both nodes at fig7LoadStep.
	siteALoad := simgrid.StepLoad(vtime.Epoch,
		[]time.Duration{fig7LoadStep}, []float64{0, fig7SiteALoad})
	g := core.New(core.Config{
		Sites: []core.SiteSpec{
			{Name: "siteA", Nodes: 2, Load: siteALoad, CostPerCPUSecond: 0.05},
			{Name: "siteB", Nodes: 1, CostPerCPUSecond: 0.05},
		},
		Links: []core.LinkSpec{{A: "siteA", B: "siteB", MBps: 10}},
		Users: []core.UserSpec{{Name: "physicist", Password: "pw", Credits: 1e6}},
	})
	if cfg.PollInterval > 0 {
		g.Steering.PollInterval = cfg.PollInterval
	}
	g.Steering.AutoSteer = !cfg.DisableSteering

	epoch := g.Now()
	// Bias placement to site A, as in the paper's run: site B advertises
	// heavy load at decision time.
	g.MonALISA.Publish("siteB", "LoadAvg", epoch, 0.95)

	// The steered job goes through the full scheduler/steering path.
	cp, err := g.Scheduler.Submit(&scheduler.JobPlan{
		Name: "primes", Owner: "physicist",
		Tasks: []scheduler.TaskPlan{{
			ID: "main", CPUSeconds: freeCPU,
			Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
			Checkpointable: cfg.Checkpointable,
		}},
	})
	if err != nil {
		return nil, err
	}
	g.Run(fig7LoadStep)
	a, _ := cp.Assignment("main")
	if a.Site != "siteA" {
		return nil, fmt.Errorf("experiments: fig7 job started at %s, want siteA", a.Site)
	}

	// The control copy runs on site A's second node, outside steering —
	// the paper "allowed [the original] to continue running on site A for
	// testing purposes".
	control := simgrid.NewTask(freeCPU, nil)
	g.Grid.Site("siteA").Node("siteA-n1").Place(control)

	res := &Fig7Result{
		Estimate: freeCPU,
		Table: &Table{
			Title: "Figure 7: Job Completion at different sites",
			// As in the paper's chart, the site-B line is a separate
			// series that starts (from zero) when the steering service
			// reschedules the job there.
			Columns: []string{
				"elapsed_s", "progress_siteA_pct", "progress_siteB_pct",
			},
		},
	}
	sample := func(now time.Time) {
		elapsed := now.Sub(epoch)
		// Progress of the job at site A (the copy the paper left running
		// there).
		pa := control.WallClock().Seconds() / freeCPU * 100
		if pa > 100 {
			pa = 100
		}
		// Progress of the job at site B: accumulated wall-clock over the
		// free-CPU estimate — the paper's proxy — once the steered job
		// has landed there.
		pb := 0.0
		if cur, ok := cp.Assignment("main"); ok && cur.CondorID != 0 {
			if cur.Site != "siteA" {
				if res.MovedAt == 0 {
					res.MovedAt = elapsed
				}
				if info, err := g.JobMon.Job(cur.Site, cur.CondorID); err == nil {
					pb = info.WallClock.Seconds() / freeCPU * 100
				}
			}
		}
		if pb > 100 {
			pb = 100
		}
		res.Table.Rows = append(res.Table.Rows, []float64{elapsed.Seconds(), pa, pb})
		if res.SteeredDone == 0 {
			if d, ok := cp.Done(); d && ok {
				res.SteeredDone = elapsed
			}
		}
		if res.UnsteeredDone == 0 && control.State() == simgrid.TaskDone {
			res.UnsteeredDone = elapsed
		}
	}
	sample(g.Now())
	for i := 0; i < int(fig7Horizon/fig7SampleEvery); i++ {
		g.Run(fig7SampleEvery)
		sample(g.Now())
	}
	res.Table.Notes = append(res.Table.Notes,
		fmt.Sprintf("free-CPU estimate = %.0f s (paper: 283 s)", freeCPU))
	if res.MovedAt > 0 {
		res.Table.Notes = append(res.Table.Notes,
			fmt.Sprintf("steering moved the job at %.0f s", res.MovedAt.Seconds()))
	}
	if res.SteeredDone > 0 {
		res.Table.Notes = append(res.Table.Notes,
			fmt.Sprintf("steered job completed at %.0f s (paper: 369 s)", res.SteeredDone.Seconds()))
	}
	if res.UnsteeredDone > 0 {
		res.Table.Notes = append(res.Table.Notes,
			fmt.Sprintf("unsteered site-A copy completed at %.0f s", res.UnsteeredDone.Seconds()))
	} else {
		res.Table.Notes = append(res.Table.Notes,
			fmt.Sprintf("unsteered site-A copy not finished within %.0f s horizon", fig7Horizon.Seconds()))
	}
	return res, nil
}
