// Command gae-sim replays built-in multi-tenant fairness scenarios on the
// simulated grid and emits per-tick CSV allocation history — the
// KAI-style scenario simulator for the fair-share subsystem. Everything
// runs on the virtual clock, so a 900-second scenario takes milliseconds
// and the output is deterministic.
//
//	gae-sim -list
//	gae-sim -scenario starvation-recovery -output -
//	gae-sim -scenario bursty-tenant -fairshare=false -output ablation.csv
//
// The CSV goes to -output ("-" for stdout); a per-tenant summary with the
// Jain fairness index goes to stderr.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	var (
		scenario  = flag.String("scenario", "", "scenario to replay (see -list)")
		list      = flag.Bool("list", false, "list built-in scenarios and exit")
		output    = flag.String("output", "-", "CSV destination path, or - for stdout")
		ticks     = flag.Int("ticks", 0, "override the scenario horizon (simulated seconds)")
		fair      = flag.Bool("fairshare", true, "arbitrate with the fair-share subsystem (false = static-priority ablation)")
		halfLife  = flag.Duration("halflife", 0, "usage decay half-life (0 = default, <0 disables decay)")
		starveWin = flag.Duration("starvation-window", 0, "starvation guard window (0 = default, <0 disables)")
		sample    = flag.Int("sample", 0, "history sampling period in ticks (default 5)")
	)
	flag.Parse()

	if *list {
		for _, sc := range workload.FairnessScenarios() {
			fmt.Printf("%-20s %s\n", sc.Name, sc.Description)
		}
		return
	}
	if *scenario == "" {
		log.Fatal("gae-sim: -scenario is required (use -list to see the catalogue)")
	}

	res, err := experiments.Fairness(experiments.FairnessConfig{
		Scenario:         *scenario,
		Ticks:            *ticks,
		FairShare:        *fair,
		HalfLife:         time.Duration(*halfLife),
		StarvationWindow: time.Duration(*starveWin),
		SampleEvery:      *sample,
	})
	if err != nil {
		log.Fatalf("gae-sim: %v", err)
	}

	csv := res.CSV()
	if *output == "-" {
		fmt.Print(csv)
	} else {
		if err := os.WriteFile(*output, []byte(csv), 0o644); err != nil {
			log.Fatalf("gae-sim: %v", err)
		}
	}
	fmt.Fprint(os.Stderr, res.Summary())
}
