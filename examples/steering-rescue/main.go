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
	"log"

	"repro/internal/experiments"
)

func main() {
	res, err := experiments.Fig7(experiments.Fig7Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Table.Chart(72, 22))
	fmt.Printf("free-CPU estimate        : %.0f s (the paper's dashed line)\n", res.Estimate)
	fmt.Printf("steering moved the job at: %.0f s\n", res.MovedAt.Seconds())
	fmt.Printf("steered job completed at : %.0f s (paper: 369 s)\n", res.SteeredDone.Seconds())
	if res.UnsteeredDone > 0 {
		fmt.Printf("unsteered copy at site A : %.0f s (%.1fx slower)\n",
			res.UnsteeredDone.Seconds(),
			res.UnsteeredDone.Seconds()/res.SteeredDone.Seconds())
	}
	fmt.Println("\nconclusion: periodically monitoring job progress and rescheduling")
	fmt.Println("slow jobs dramatically reduces completion time — the paper's §7 claim.")
}
