// Grid weather: the interactivity the paper's abstract promises —
// "provides users more information about Grid weather, and gives them
// more control over the decision making process".
//
// A three-site grid runs under a diurnal load cycle; the example samples
// the MonALISA repository over a simulated day, charts each site's load,
// and shows the scheduler's site choice flipping as the weather changes.
//
//	go run ./examples/grid-weather
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/monalisa"
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
			// Peak hours chosen so the sites trade places through the day.
			{Name: "cern", Nodes: 2, Load: simgrid.DiurnalLoad(0.45, 0.4, 14), CostPerCPUSecond: 0.08},
			{Name: "caltech", Nodes: 2, Load: simgrid.DiurnalLoad(0.45, 0.4, 2), CostPerCPUSecond: 0.05},
			{Name: "nust", Nodes: 2, Load: simgrid.NoisyLoad(simgrid.ConstantLoad(0.5), 0.1, 7), CostPerCPUSecond: 0.01},
		},
		Links: []core.LinkSpec{
			{A: "cern", B: "caltech", MBps: 25},
			{A: "cern", B: "nust", MBps: 8},
			{A: "caltech", B: "nust", MBps: 6},
		},
		Users:           []core.UserSpec{{Name: "alice", Password: "pw", Credits: 1e6}},
		MonitorInterval: 5 * time.Minute,
	})

	probe := scheduler.TaskPlan{ID: "probe", CPUSeconds: 600, Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch", ReqHours: 1.0 / 6}
	table := &experiments.Table{
		Title:   "Grid weather over one simulated day (site background load)",
		Columns: []string{"hour", "cern", "caltech", "nust"},
	}
	fmt.Fprintln(stdout, "hour  cern  caltech  nust   scheduler would pick")
	for h := 0; h <= 24; h += 2 {
		best, _, err := gae.Scheduler.SelectSite(probe, nil)
		if err != nil {
			return err
		}
		loads := make(map[string]float64, 3)
		for _, s := range []string{"cern", "caltech", "nust"} {
			loads[s] = gae.MonALISA.LatestValue(s, monalisa.MetricLoadAvg, 0)
		}
		fmt.Fprintf(stdout, "%4d  %.2f  %7.2f  %.2f   → %s\n",
			h, loads["cern"], loads["caltech"], loads["nust"], best.Site)
		table.Rows = append(table.Rows, []float64{
			float64(h), loads["cern"], loads["caltech"], loads["nust"],
		})
		gae.Run(2 * time.Hour)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, table.Chart(72, 16))
	return nil
}
