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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("gae-sim: %v", err)
	}
}

// run is the whole command: args are its arguments, without the
// program name.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gae-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "", "scenario file to replay, e.g. testdata/scenarios/bursty-tenant.json")
		output   = fs.String("output", "-", "CSV destination path, or - for stdout")
		fair     = fs.Bool("fairshare", true, "arbitrate with the fair-share subsystem (false = static-priority ablation)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *scenario == "":
		return errors.New("-scenario is required")
	}
	sc, err := workload.LoadScenario(*scenario)
	if err != nil {
		return err
	}
	res, err := experiments.Fairness(sc, *fair)
	if err != nil {
		return err
	}

	csv := res.CSV()
	if *output == "-" {
		_, err = io.WriteString(stdout, csv)
	} else {
		err = os.WriteFile(*output, []byte(csv), 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Fprint(stderr, res.Summary())
	return nil
}
