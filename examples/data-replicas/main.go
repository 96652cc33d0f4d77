// Data replicas: the data-grid side of the paper's introduction — "to
// identify where the requested data is located, to determine the best and
// closest available locations for executing the physics analysis code".
//
// A dataset is replicated at two sites; analysis tasks name the dataset
// without a source, and the scheduler resolves the closest replica per
// execution site via measured bandwidth. Replicas created by staging and
// by job outputs are catalogued, so later tasks find data closer.
//
//	go run ./examples/data-replicas
package main

import (
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
			// CERN holds the data but its farm is saturated, so analysis
			// runs elsewhere and the data must travel.
			{Name: "cern", Nodes: 1, Load: simgrid.ConstantLoad(0.85), CostPerCPUSecond: 0.08},
			{Name: "caltech", Nodes: 2, CostPerCPUSecond: 0.05},
			{Name: "nust", Nodes: 2, CostPerCPUSecond: 0.01},
		},
		Links: []core.LinkSpec{
			{A: "cern", B: "caltech", MBps: 50, LatencyMS: 90}, // fast transatlantic
			{A: "cern", B: "nust", MBps: 2, LatencyMS: 60},     // thin
			{A: "caltech", B: "nust", MBps: 20, LatencyMS: 120},
		},
		Users: []core.UserSpec{{Name: "alice", Password: "pw", Credits: 1000}},
	})

	// The run data starts at CERN only.
	if err := gae.PutDataset("cern", "run2005A.raw", 600); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "dataset run2005A.raw (600 MB) registered at:", locationsOf(gae, "run2005A.raw"))

	// First analysis pass: wherever it runs, the scheduler stages from
	// the closest replica (only CERN exists yet).
	pass := func(planName string) error {
		cp, err := gae.Scheduler.Submit(&scheduler.JobPlan{
			Name: planName, Owner: "alice",
			Tasks: []scheduler.TaskPlan{{
				ID: "analyze", CPUSeconds: 120,
				Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
				Inputs:     []scheduler.FileRef{{Name: "run2005A.raw"}}, // no site!
				OutputFile: planName + ".hist", OutputMB: 10,
			}},
		})
		if err != nil {
			return err
		}
		if err := gae.RunUntilDone(cp, 30*time.Minute); err != nil {
			return err
		}
		gae.Run(3 * time.Second)
		a, _ := cp.Assignment("analyze")
		fmt.Fprintf(stdout, "%s ran at %-8s (staging estimate %.0fs); replicas now at: %v\n",
			planName, a.Site, a.Estimates.TransferSeconds, locationsOf(gae, "run2005A.raw"))
		return nil
	}
	// pass2 finds a closer replica created by pass1's staging.
	for _, name := range []string{"pass1", "pass2", "pass3"} {
		if err := pass(name); err != nil {
			return err
		}
	}

	fmt.Fprintln(stdout, "\nreplica catalog after the campaign:")
	for _, d := range gae.Replicas.Datasets() {
		fmt.Fprintf(stdout, "  %-14s %v\n", d, locationsOf(gae, d))
	}
	return nil
}

func locationsOf(gae *core.GAE, dataset string) []string {
	var out []string
	for _, l := range gae.Replicas.Locations(dataset) {
		out = append(out, l.Site)
	}
	return out
}
