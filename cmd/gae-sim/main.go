// Command gae-sim replays a multi-tenant fairness scenario file on the
// simulated grid, tick by tick, and emits its allocation history as CSV,
// sampled every 5 ticks and at the last — the KAI-style scenario
// simulator for the fair-share subsystem. Everything runs on the virtual
// clock, so a 900-second scenario takes milliseconds and the output is
// deterministic.
//
//	gae-sim -scenario testdata/scenarios/starvation-recovery.json -output -
//	gae-sim -scenario testdata/scenarios/bursty-tenant.json -fairshare=false -output ablation.csv
//
// The scenario file (see workload.LoadScenario) is the whole description
// of the run. The CSV goes to -output ("-" for stdout); a per-tenant
// summary with the Jain fairness index goes to stderr.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "scenario file to replay, e.g. testdata/scenarios/bursty-tenant.json")
		output   = flag.String("output", "-", "CSV destination path, or - for stdout")
		fair     = flag.Bool("fairshare", true, "arbitrate with the fair-share subsystem (false = static-priority ablation)")
	)
	flag.Parse()

	if *scenario == "" {
		log.Fatal("gae-sim: -scenario is required")
	}
	sc, err := workload.LoadScenario(*scenario)
	if err != nil {
		log.Fatalf("gae-sim: %v", err)
	}
	res, err := experiments.Fairness(sc, *fair)
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
