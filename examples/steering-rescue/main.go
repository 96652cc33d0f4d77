// Steering rescue: the Figure 7 scenario end to end. A prime-counting
// job (283 CPU-seconds on a free processor) lands at site A, which then
// develops significant background load; the Steering Service notices the
// slow execution rate through the Job Monitoring Service and redirects
// the job to an idle site B, while a copy left at site A crawls along for
// comparison.
//
//	go run ./examples/steering-rescue
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	res, err := experiments.Fig7(experiments.Fig7Config{})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res.Table.Chart(72, 22))
	fmt.Fprintf(stdout, "free-CPU estimate        : %.0f s (the paper's dashed line)\n", res.Estimate)
	fmt.Fprintf(stdout, "steering moved the job at: %.0f s\n", res.MovedAt.Seconds())
	fmt.Fprintf(stdout, "steered job completed at : %.0f s (paper: 369 s)\n", res.SteeredDone.Seconds())
	if res.UnsteeredDone > 0 {
		fmt.Fprintf(stdout, "unsteered copy at site A : %.0f s (%.1fx slower)\n",
			res.UnsteeredDone.Seconds(),
			res.UnsteeredDone.Seconds()/res.SteeredDone.Seconds())
	}
	fmt.Fprintln(stdout, "\nconclusion: periodically monitoring job progress and rescheduling")
	fmt.Fprintln(stdout, "slow jobs dramatically reduces completion time — the paper's §7 claim.")
	return nil
}
