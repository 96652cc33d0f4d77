// Physics analysis: a CMS-style DAG workload — stage data, run two
// reconstruction passes in parallel, merge — scheduled across a
// three-site grid with replica staging, decentralized runtime estimators,
// MonALISA load input, and quota accounting. This is the workload shape
// the paper's introduction motivates: "a large number of computing jobs
// are split up into a number of processing steps (arranged to follow a
// directed acyclic graph structure) and are executed in parallel".
//
//	go run ./examples/physics-analysis
package main

import (
	"errors"
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
	gae := core.New(core.Config{
		Sites: []core.SiteSpec{
			{Name: "cern", Nodes: 2, Load: simgrid.DiurnalLoad(0.3, 0.2, 14), CostPerCPUSecond: 0.08},
			{Name: "caltech", Nodes: 4, CostPerCPUSecond: 0.05},
			{Name: "nust", Nodes: 2, Load: simgrid.ConstantLoad(0.15), CostPerCPUSecond: 0.01},
		},
		Links: []core.LinkSpec{
			{A: "cern", B: "caltech", MBps: 25, LatencyMS: 90},
			{A: "cern", B: "nust", MBps: 8, LatencyMS: 60},
			{A: "caltech", B: "nust", MBps: 6, LatencyMS: 120},
		},
		Users: []core.UserSpec{{Name: "physicist", Password: "pw", Credits: 500}},
	})

	// The raw detector data lives at CERN.
	gae.Grid.Site("cern").Storage().Put("run2005A.raw", 800)

	plan := &scheduler.JobPlan{
		Name:  "cms-analysis",
		Owner: "physicist",
		Tasks: []scheduler.TaskPlan{
			{
				ID: "stage", CPUSeconds: 45,
				Queue: "short", Partition: "io", Nodes: 1, JobType: "batch",
				Inputs:     []scheduler.FileRef{{Name: "run2005A.raw", Site: "cern", SizeMB: 800}},
				OutputFile: "run2005A.skim", OutputMB: 200,
			},
			{
				ID: "reco-muons", CPUSeconds: 400, DependsOn: []string{"stage"},
				Queue: "long", Partition: "cpu", Nodes: 1, JobType: "batch",
				ReqHours: 0.15, OutputFile: "muons.root", OutputMB: 40,
			},
			{
				ID: "reco-jets", CPUSeconds: 520, DependsOn: []string{"stage"},
				Queue: "long", Partition: "cpu", Nodes: 1, JobType: "batch",
				ReqHours: 0.2, OutputFile: "jets.root", OutputMB: 55,
			},
			{
				ID: "merge", CPUSeconds: 90, DependsOn: []string{"reco-muons", "reco-jets"},
				Queue: "short", Partition: "cpu", Nodes: 1, JobType: "batch",
				ReqHours: 0.03, OutputFile: "analysis.root", OutputMB: 80,
			},
		},
	}
	cp, err := gae.Scheduler.Submit(plan)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "submitted CMS-style DAG: stage → {reco-muons, reco-jets} → merge")

	epoch := gae.Now()
	lastState := map[string]string{}
	for {
		gae.Run(10 * time.Second)
		for _, a := range cp.Assignments() {
			key := a.TaskID
			state := fmt.Sprintf("%s@%s", a.State, orDash(a.Site))
			if lastState[key] != state {
				lastState[key] = state
				fmt.Fprintf(stdout, "t=%4.0fs %-11s → %s\n",
					gae.Now().Sub(epoch).Seconds(), a.TaskID, state)
			}
		}
		if done, _ := cp.Done(); done {
			break
		}
		if gae.Now().Sub(epoch) > 2*time.Hour {
			return errors.New("plan did not finish within 2 simulated hours")
		}
	}
	_, ok := cp.Done()
	fmt.Fprintf(stdout, "\nplan finished (succeeded=%v) in %.0f simulated seconds\n",
		ok, gae.Now().Sub(epoch).Seconds())

	// Where did everything run, and what did the estimators predict?
	fmt.Fprintln(stdout, "\ntask      site      est(s)  queue(s)  transfer(s)")
	for _, a := range cp.Assignments() {
		fmt.Fprintf(stdout, "%-9s %-9s %6.0f  %8.0f  %11.0f\n",
			a.TaskID, a.Site, a.Estimates.RuntimeSeconds,
			a.Estimates.QueueSeconds, a.Estimates.TransferSeconds)
	}

	// Charge the physicist for the CPU actually used, via the Quota and
	// Accounting Service.
	total := 0.0
	for _, a := range cp.Assignments() {
		pool, okP := gae.Pool(a.Site)
		if !okP {
			continue
		}
		info, err := pool.Job(a.CondorID)
		if err != nil {
			continue
		}
		cost, err := gae.Quota.Charge("physicist", a.Site, info.CPUSeconds, 0, gae.Now(), a.TaskID)
		if err != nil {
			return err
		}
		total += cost
	}
	bal, _ := gae.Quota.Balance("physicist")
	fmt.Fprintf(stdout, "\ntotal CPU charges: %.2f credits (balance now %.2f)\n", total, bal)

	// The final dataset is downloadable where merge ran.
	if a, okA := cp.Assignment("merge"); okA {
		if f, okF := gae.Grid.Site(a.Site).Storage().Get("analysis.root"); okF {
			fmt.Fprintf(stdout, "analysis.root (%.0f MB) available at %s\n", f.SizeMB, a.Site)
		}
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
