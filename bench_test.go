// Package repro_test is the benchmark harness of the reproduction: one
// benchmark per measured artifact of the paper (Figures 5, 6 and 7), a
// set of ablation benches for the design choices DESIGN.md calls out,
// micro-benchmarks of the paper's two decision procedures (scheduler site
// selection, runtime estimation), simulator scenarios, and the fairness
// metrics. The wire codec, Clarens dispatch, ClassAd matching, negotiation
// and serving throughput are measured end to end and layer by layer by
// bench/ (the command BENCHMARK.json names).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Figure-level benches attach their headline result via b.ReportMetric —
// e.g. BenchmarkFigure5 reports mean_err_% (paper: 13.53), and
// BenchmarkFigure7 reports steered_s (paper: 369) and unsteered_s.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/condor"
	"repro/internal/estimator"
	"repro/internal/experiments"
	"repro/internal/monalisa"
	"repro/internal/quota"
	"repro/internal/replica"
	"repro/internal/scheduler"
	"repro/internal/simgrid"
	"repro/internal/workload"
)

// --- Figure 5: runtime-estimator accuracy -------------------------------

func BenchmarkFigure5(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(experiments.DefaultFig5())
		if err != nil {
			b.Fatal(err)
		}
		mean = res.MeanError
	}
	b.ReportMetric(mean, "mean_err_%")
}

// --- Figure 6: Job Monitoring Service response times ---------------------

func BenchmarkFigure6(b *testing.B) {
	for _, clients := range experiments.DefaultFig6().ClientCounts {
		b.Run(fmt.Sprintf("clients-%d", clients), func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig6(experiments.Fig6Config{
					ClientCounts:      []int{clients},
					RequestsPerClient: 10,
					Jobs:              10,
				})
				if err != nil {
					b.Fatal(err)
				}
				avg = res.AvgMillis[0]
			}
			b.ReportMetric(avg, "avg_ms")
		})
	}
}

// --- Figure 7: steering rescue -------------------------------------------

func BenchmarkFigure7(b *testing.B) {
	var steered, unsteered, moved float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(experiments.Fig7Config{})
		if err != nil {
			b.Fatal(err)
		}
		steered = res.SteeredDone.Seconds()
		unsteered = res.UnsteeredDone.Seconds()
		moved = res.MovedAt.Seconds()
	}
	b.ReportMetric(steered, "steered_s")
	b.ReportMetric(unsteered, "unsteered_s")
	b.ReportMetric(moved, "moved_at_s")
}

// --- Ablation: estimator statistic (mean vs regression vs last) ----------

func BenchmarkAblationEstimatorStatistic(b *testing.B) {
	for _, stat := range []estimator.Statistic{
		estimator.StatAuto, estimator.StatMean, estimator.StatRegression,
		estimator.StatLast, estimator.StatMedian,
	} {
		b.Run(stat.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig5(experiments.Fig5Config{
					HistoryJobs: 100, TestJobs: 20, Seed: 216, Statistic: stat,
				})
				if err != nil {
					b.Fatal(err)
				}
				mean = res.MeanError
			}
			b.ReportMetric(mean, "mean_err_%")
		})
	}
}

// --- Ablation: similarity template granularity ---------------------------

func BenchmarkAblationSimilarityTemplate(b *testing.B) {
	cases := []struct {
		name      string
		templates []estimator.Template
	}{
		{"full-search", nil},
		{"queue-partition-nodes", []estimator.Template{
			{estimator.AttrQueue, estimator.AttrPartition, estimator.AttrNodes},
		}},
		{"queue-only", []estimator.Template{{estimator.AttrQueue}}},
		{"universal", []estimator.Template{{}}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig5(experiments.Fig5Config{
					HistoryJobs: 100, TestJobs: 20, Seed: 216, Templates: c.templates,
				})
				if err != nil {
					b.Fatal(err)
				}
				mean = res.MeanError
			}
			b.ReportMetric(mean, "mean_err_%")
		})
	}
}

// --- Ablation: steering poll period → completion time --------------------

func BenchmarkAblationSteeringPollPeriod(b *testing.B) {
	for _, poll := range []time.Duration{5 * time.Second, 10 * time.Second, 30 * time.Second, 60 * time.Second} {
		b.Run(poll.String(), func(b *testing.B) {
			var steered float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.Fig7Config{PollInterval: poll}
				res, err := experiments.Fig7(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steered = res.SteeredDone.Seconds()
			}
			b.ReportMetric(steered, "steered_s")
		})
	}
}

// --- Ablation: steering on vs off (the paper's central comparison) -------

func BenchmarkAblationSteeringOnOff(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "steering-on"
		if !on {
			name = "steering-off"
		}
		b.Run(name, func(b *testing.B) {
			var done float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.Fig7Config{DisableSteering: !on}
				res, err := experiments.Fig7(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if on {
					done = res.SteeredDone.Seconds()
				} else {
					// Without steering the watched job is the site-A crawl.
					done = res.UnsteeredDone.Seconds()
				}
			}
			b.ReportMetric(done, "completion_s")
		})
	}
}

// --- Micro: scheduler site selection --------------------------------------

func BenchmarkSchedulerSelectSite(b *testing.B) {
	g := simgrid.NewGrid(time.Second, 1)
	repo := monalisa.NewRepository()
	sched := scheduler.New(scheduler.Config{Grid: g, Monitor: repo})
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("site%d", i)
		site := g.AddSite(name)
		pool := condor.NewPool(name, g, site)
		pool.AddMachine(site.AddNode(g.Engine, name+"-n", 1, simgrid.ConstantLoad(float64(i)/10)), nil)
		sched.RegisterSite(name, &scheduler.SiteServices{
			Pool:    pool,
			Runtime: estimator.NewRuntimeEstimator(estimator.NewHistory(0)),
		})
	}
	monalisa.NewFarmMonitor(repo, g, 5*time.Second)
	g.Engine.RunFor(10 * time.Second)
	task := scheduler.TaskPlan{ID: "t", CPUSeconds: 100, Queue: "q", ReqHours: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.SelectSite(task, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro: runtime estimation over a large history -----------------------

func BenchmarkRuntimeEstimate(b *testing.B) {
	trace := workload.ParagonTrace(workload.ParagonConfig{Jobs: 1000, Seed: 3})
	h := estimator.NewHistory(0)
	for _, r := range trace {
		if err := h.Add(r); err != nil {
			b.Fatal(err)
		}
	}
	e := estimator.NewRuntimeEstimator(h)
	target := trace[500]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Estimate(target); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Scenario: end-to-end simulation throughput ----------------------------
//
// The discrete-event engine's headline numbers. Each scenario runs a
// seeded workload and reports simulated-seconds-per-wall-second and the
// number of engine events dispatched. Sparse long-horizon is the case the
// event engine exists for: of a million boundaries it pays only for the
// ~thousand that carry work.

func scenarioBench(b *testing.B, simSeconds float64, run func() *simgrid.Engine) {
	var events int64
	for i := 0; i < b.N; i++ {
		events = run().Events()
	}
	b.ReportMetric(simSeconds*float64(b.N)/b.Elapsed().Seconds(), "sim_s/wall_s")
	b.ReportMetric(float64(events), "events")
}

func BenchmarkScenarioSparseLongHorizon(b *testing.B) {
	// A trickle of batch jobs across a monitored three-site grid over
	// ~11.5 simulated days: long stretches where nothing happens at all.
	const horizon = 1_000_000.0
	scenarioBench(b, horizon, func() *simgrid.Engine {
		g := simgrid.NewGrid(time.Second, 1)
		repo := monalisa.NewRepository()
		var pools []*condor.Pool
		for s := 0; s < 3; s++ {
			name := fmt.Sprintf("site%d", s)
			site := g.AddSite(name)
			pool := condor.NewPool(name, g, site)
			for i := 0; i < 8; i++ {
				pool.AddMachine(site.AddNode(g.Engine, fmt.Sprintf("%s-n%d", name, i), 1, simgrid.ConstantLoad(0.2)), nil)
			}
			pools = append(pools, pool)
		}
		monalisa.NewFarmMonitor(repo, g, 600*time.Second)
		for j := 0; j < 24; j++ {
			j := j
			g.Engine.Schedule(time.Duration(j)*40000*time.Second, func(time.Time) {
				ad := classad.New().
					Set(condor.AttrOwner, "trickle").
					Set(condor.AttrCpuSeconds, 3000.0)
				if _, err := pools[j%len(pools)].Submit(ad); err != nil {
					b.Error(err)
				}
			})
		}
		g.Engine.RunFor(time.Duration(horizon) * time.Second)
		return g.Engine
	})
}

func BenchmarkScenarioDenseBurst(b *testing.B) {
	// A thousand short jobs slam one 64-machine pool at once: nearly every
	// boundary carries work, so this bounds the event queue's overhead in
	// the regime where there is nothing to skip.
	const horizon = 2_000.0
	scenarioBench(b, horizon, func() *simgrid.Engine {
		g := simgrid.NewGrid(time.Second, 1)
		site := g.AddSite("s")
		pool := condor.NewPool("s", g, site)
		for i := 0; i < 64; i++ {
			pool.AddMachine(site.AddNode(g.Engine, fmt.Sprintf("n%02d", i), 1, simgrid.IdleLoad()), nil)
		}
		for j := 0; j < 1000; j++ {
			ad := classad.New().
				Set(condor.AttrOwner, fmt.Sprintf("u%d", j%7)).
				Set(condor.AttrCpuSeconds, float64(30+j%90))
			if _, err := pool.Submit(ad); err != nil {
				b.Fatal(err)
			}
		}
		g.Engine.RunFor(time.Duration(horizon) * time.Second)
		return g.Engine
	})
}

func BenchmarkScenarioNetworkContention(b *testing.B) {
	// Staging storms on a shared backbone: four leaf sites push bursts of
	// replicas through one hub, 12 flows per burst contending on few
	// links, with background utilization swinging between bursts. Bursts
	// are separated by long idle stretches, so the engine pays only for
	// flow perturbations — the network-flow analogue of SparseLongHorizon.
	const horizon = 200_000.0
	scenarioBench(b, horizon, func() *simgrid.Engine {
		g := simgrid.NewGrid(time.Second, 1)
		leaves := []string{"leaf0", "leaf1", "leaf2", "leaf3"}
		hub := g.AddSite("hub")
		for i, name := range leaves {
			leaf := g.AddSite(name)
			g.Network.Connect(name, "hub", simgrid.Link{BandwidthMBps: 25, Latency: 50 * time.Millisecond})
			for f := 0; f < 3; f++ {
				leaf.Storage().Put(fmt.Sprintf("d%d-%d", i, f), float64(200+50*f))
			}
		}
		completed := 0
		for burst := 0; burst < 20; burst++ {
			at := time.Duration(burst) * 10_000 * time.Second
			g.Engine.Schedule(at, func(time.Time) {
				// Staged the way the scheduler stages: a flow, then the
				// file stored at the destination when it lands.
				for i, name := range leaves {
					src := g.Site(name).Storage()
					for f := 0; f < 3; f++ {
						file, _ := src.Get(fmt.Sprintf("d%d-%d", i, f))
						if _, err := g.Network.StartTransfer(name, "hub", file.SizeMB, func(time.Duration) {
							_ = hub.Storage().Put(file.Name, file.SizeMB)
							completed++
						}); err != nil {
							b.Error(err)
						}
					}
				}
			})
			// Background traffic shifts mid-burst and clears afterwards,
			// re-deriving every in-flight deadline both times.
			g.Engine.Schedule(at+20*time.Second, func(time.Time) {
				for _, name := range leaves {
					if err := g.Network.SetUtilization(name, "hub", 0.6); err != nil {
						b.Error(err)
					}
				}
			})
			g.Engine.Schedule(at+400*time.Second, func(time.Time) {
				for _, name := range leaves {
					if err := g.Network.SetUtilization(name, "hub", 0); err != nil {
						b.Error(err)
					}
				}
			})
		}
		g.Engine.RunFor(time.Duration(horizon) * time.Second)
		if completed != 20*len(leaves)*3 {
			b.Fatalf("completed %d transfers, want %d", completed, 20*len(leaves)*3)
		}
		return g.Engine
	})
}

// --- Ablation: history size → estimator accuracy (learning curve) ---------

func BenchmarkAblationHistorySize(b *testing.B) {
	for _, n := range []int{10, 25, 50, 100, 200, 400} {
		b.Run(fmt.Sprintf("history-%d", n), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig5(experiments.Fig5Config{
					HistoryJobs: n, TestJobs: 20, Seed: 216,
				})
				if err != nil {
					b.Fatal(err)
				}
				mean = res.MeanError
			}
			b.ReportMetric(mean, "mean_err_%")
		})
	}
}

// --- Ablation: replica selection (closest vs first-listed) ----------------

func BenchmarkAblationReplicaSelection(b *testing.B) {
	build := func() (*simgrid.Grid, *replica.Catalog, *estimator.TransferEstimator) {
		g := simgrid.NewGrid(time.Second, 1)
		for _, n := range []string{"dst", "near", "far"} {
			g.AddSite(n)
		}
		g.Network.Connect("dst", "near", simgrid.Link{BandwidthMBps: 100})
		g.Network.Connect("dst", "far", simgrid.Link{BandwidthMBps: 2})
		g.Network.Connect("near", "far", simgrid.Link{BandwidthMBps: 2})
		cat := replica.NewCatalog()
		cat.Register("data", "far", 500)
		cat.Register("data", "near", 500)
		return g, cat, &estimator.TransferEstimator{Network: g.Network}
	}
	b.Run("closest-replica", func(b *testing.B) {
		_, cat, te := build()
		var sec float64
		for i := 0; i < b.N; i++ {
			_, s, err := cat.Best(te, "data", "dst")
			if err != nil {
				b.Fatal(err)
			}
			sec = s
		}
		b.ReportMetric(sec, "transfer_s")
	})
	b.Run("first-listed", func(b *testing.B) {
		g, cat, te := build()
		_ = g
		var sec float64
		for i := 0; i < b.N; i++ {
			locs := cat.Locations("data")
			est, err := te.Estimate(locs[0].Site, "dst", locs[0].SizeMB)
			if err != nil {
				b.Fatal(err)
			}
			sec = est.Seconds
		}
		b.ReportMetric(sec, "transfer_s")
	})
}

// --- Ablation: optimizer preference (fast vs cheap) ------------------------

func BenchmarkAblationOptimizerPreference(b *testing.B) {
	// Compare the quota cost of running a 283-cpu-second job at the site
	// each preference would choose, given a cheap-but-slower and a
	// fast-but-pricier alternative. (The steering integration of the two
	// preferences is covered by steering's unit tests; this bench reports
	// the resulting credit cost of each policy.)
	q := quota.NewService()
	q.SetRate("fastsite", quota.Rate{CPUSecond: 0.10})
	q.SetRate("cheapsite", quota.Rate{CPUSecond: 0.01})
	b.Run("cheap", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			_, c, err := q.CheapestSite([]string{"fastsite", "cheapsite"}, 283, 0)
			if err != nil {
				b.Fatal(err)
			}
			cost = c
		}
		b.ReportMetric(cost, "credits")
	})
	b.Run("fast", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			c, err := q.Cost("fastsite", 283, 0)
			if err != nil {
				b.Fatal(err)
			}
			cost = c
		}
		b.ReportMetric(cost, "credits")
	})
}

// --- Ablation: checkpointing (the paper's stated improvement) --------------
//
// "The job can be completed even quicker than 369 seconds if it is
// checkpoint-able and flocking is enabled" (§7): the migrated job resumes
// from its accumulated CPU work instead of restarting at zero.

func BenchmarkAblationCheckpointing(b *testing.B) {
	for _, ckpt := range []bool{false, true} {
		name := "restart"
		if ckpt {
			name = "checkpoint"
		}
		b.Run(name, func(b *testing.B) {
			var steered float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.Fig7Config{Checkpointable: ckpt}
				res, err := experiments.Fig7(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steered = res.SteeredDone.Seconds()
			}
			b.ReportMetric(steered, "steered_s")
		})
	}
}

// --- Fair-share fairness (multi-tenant arbitration) ------------------------

// BenchmarkFairShare replays the multi-tenant scenario files with the
// fair-share subsystem arbitrating and reports Jain's fairness index over
// entitlement-normalized completed CPU-seconds (1 = perfectly
// weight-proportional) plus the worst-off tenant's share. Equal-weight
// scenarios should report jain_index ≥ 0.9.
func BenchmarkFairShare(b *testing.B) {
	for _, sc := range []string{
		"bursty-tenant", "starvation-recovery", "weighted-groups", "federated-flocking",
	} {
		scenario := loadScenario(b, sc)
		b.Run(sc, func(b *testing.B) {
			var jain, minShare float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fairness(scenario, true)
				if err != nil {
					b.Fatal(err)
				}
				jain, minShare = res.JainIndex, res.MinShare
			}
			b.ReportMetric(jain, "jain_index")
			b.ReportMetric(minShare, "min_share")
		})
	}
}

// BenchmarkAblationFairShareOff is the control: the same scenarios under
// the seed's static-priority/FIFO negotiation. The bursty tenant drags
// the Jain index down and the priority flood starves the meek tenant
// outright (min_share 0) — the measurable starvation the fair-share
// subsystem removes.
func BenchmarkAblationFairShareOff(b *testing.B) {
	for _, sc := range []string{"bursty-tenant", "starvation-recovery"} {
		scenario := loadScenario(b, sc)
		b.Run(sc, func(b *testing.B) {
			var jain, minShare float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fairness(scenario, false)
				if err != nil {
					b.Fatal(err)
				}
				jain, minShare = res.JainIndex, res.MinShare
			}
			b.ReportMetric(jain, "jain_index")
			b.ReportMetric(minShare, "min_share")
		})
	}
}
