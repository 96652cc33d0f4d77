// Quickstart: build a two-site Grid Analysis Environment in-process,
// submit a small job plan, let the simulated grid run it, and query the
// paper's resource-management services along the way through the typed
// gae.Client (local transport — the same client gae.Dial returns for a
// remote server).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/simgrid"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	ctx := context.Background()
	// A deployment: two sites, one link, one user.
	gae := core.New(core.Config{
		Sites: []core.SiteSpec{
			{Name: "caltech", Nodes: 2, CostPerCPUSecond: 0.05},
			{Name: "nust", Nodes: 1, Load: simgrid.ConstantLoad(0.3), CostPerCPUSecond: 0.01},
		},
		Links: []core.LinkSpec{{A: "caltech", B: "nust", MBps: 10, LatencyMS: 80}},
		Users: []core.UserSpec{{Name: "alice", Password: "pw", Credits: 1000}},
	})

	// An abstract job plan: one 120-CPU-second analysis task.
	plan := &scheduler.JobPlan{
		Name:  "quickstart",
		Owner: "alice",
		Tasks: []scheduler.TaskPlan{{
			ID:         "analysis",
			CPUSeconds: 120,
			Queue:      "short", Partition: "gae", Nodes: 1, JobType: "batch",
			ReqHours:   120.0 / 3600,
			OutputFile: "histograms.root",
			OutputMB:   25,
		}},
	}
	cp, err := gae.Scheduler.Submit(plan)
	if err != nil {
		return err
	}

	// The typed client: every paper service behind one API, no
	// serialization on the local transport.
	client := gae.Client("alice")

	// The scheduler consulted every site's estimators and MonALISA load.
	a, _ := cp.Assignment("analysis")
	fmt.Fprintf(stdout, "scheduler placed %q at %s\n", "analysis", a.Site)
	for _, e := range a.Considered {
		fmt.Fprintf(stdout, "  candidate %-8s runtime=%.0fs queue=%.0fs transfer=%.0fs load=%.2f score=%.0f\n",
			e.Site, e.RuntimeSeconds, e.QueueSeconds, e.TransferSeconds, e.Load, e.Score)
	}

	// Advance simulated time and watch through the Job Monitoring Service.
	for i := 0; i < 4; i++ {
		gae.Run(30 * time.Second)
		cur, _ := cp.Assignment("analysis")
		if cur.CondorID == 0 {
			continue
		}
		info, err := client.Job(ctx, cur.Site, cur.CondorID)
		if err != nil {
			continue
		}
		fmt.Fprintf(stdout, "t=%3.0fs status=%-9s progress=%3.0f%% wallclock=%.0fs queuepos=%d\n",
			gae.Now().Sub(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)).Seconds(),
			info.Status, info.Progress*100, info.WallclockSeconds, info.QueuePosition)
	}

	// Completion propagates through the execution service's harvest and
	// the scheduler's event queue on the following ticks.
	gae.Run(5 * time.Second)
	done, ok := cp.Done()
	fmt.Fprintf(stdout, "plan done=%v succeeded=%v\n", done, ok)

	// The steering service collected the execution state.
	gae.Run(15 * time.Second)
	ns, err := client.Notifications(ctx)
	if err != nil {
		return err
	}
	for _, n := range ns {
		fmt.Fprintf(stdout, "notification [%s]: %s\n", n.Kind, n.Message)
	}
	site := gae.Grid.Site(a.Site)
	if f, ok := site.Storage().Get("histograms.root"); ok {
		fmt.Fprintf(stdout, "output %s (%.0f MB) available at %s\n", f.Name, f.SizeMB, a.Site)
	}

	// The estimator service answers what-if questions.
	est, err := client.EstimateTransfer(ctx, "caltech", "nust", 500)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "moving a 500 MB dataset caltech→nust would take %.0fs at %.1f MB/s (+%.2fs latency)\n",
		est.Seconds, est.BandwidthMBps, est.LatencySeconds)
	return nil
}
