// Estimator accuracy: the Figure 5 experiment. A synthetic SDSC-Paragon
// accounting trace (the paper used Allen Downey's 1995 data) is split
// into a 100-job history and 20 test jobs; the history-based runtime
// estimator predicts each test job and the mean percentage error is
// compared with the paper's 13.53%.
//
//	go run ./examples/estimator-accuracy
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/estimator"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	res, err := experiments.Fig5(experiments.DefaultFig5())
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "case  actual(s)  estimated(s)  error%")
	for _, row := range res.Table.Rows {
		fmt.Fprintf(stdout, "%4.0f  %9.0f  %12.0f  %+6.1f\n", row[0], row[1], row[2], row[3])
	}
	fmt.Fprintf(stdout, "\nmean error: %.2f%%   (paper: 13.53%%)\n\n", res.MeanError)

	// Ablation: how much does the statistic matter?
	for _, stat := range []estimator.Statistic{
		estimator.StatAuto, estimator.StatMean, estimator.StatRegression, estimator.StatLast, estimator.StatMedian,
	} {
		r, err := experiments.Fig5(experiments.Fig5Config{
			HistoryJobs: 100, TestJobs: 20, Seed: 216, Statistic: stat,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "statistic %-10s → mean error %6.2f%%\n", stat, r.MeanError)
	}

	// Ablation: similarity template granularity.
	for _, tc := range []struct {
		name      string
		templates []estimator.Template
	}{
		{"full search", nil},
		{"queue only", []estimator.Template{{estimator.AttrQueue}}},
		{"universal", []estimator.Template{{}}},
	} {
		r, err := experiments.Fig5(experiments.Fig5Config{
			HistoryJobs: 100, TestJobs: 20, Seed: 216, Templates: tc.templates,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "template %-12s → mean error %6.2f%%\n", tc.name, r.MeanError)
	}
	return nil
}
