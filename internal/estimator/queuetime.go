package estimator

import (
	"fmt"

	"repro/internal/condor"
	"repro/pkg/gae"
)

// QueueEstimate is a queued job's predicted wait and the number of jobs
// it was summed over.
type QueueEstimate = gae.QueueEstimate

// QueueTime predicts how long job id of pool will wait before starting —
// the paper's §6.2 algorithm:
//
//	(a) take the Condor ID of the input task;
//	(b) fetch from the execution service the IDs and elapsed runtimes of
//	    all tasks with priority greater than the input task;
//	(c) fetch those tasks' submission-time runtime estimates, which the
//	    scheduler stamps into each job's ad (EstimatedRuntime) — the pool's
//	    job table is the paper's "separate database";
//	(d) remaining = estimate − elapsed for each, and the queue time is
//	    the sum of the remainders.
//
// A job whose ad carries no estimate is skipped.
func QueueTime(pool *condor.Pool, id int) (QueueEstimate, error) {
	ahead, err := pool.QueueAbove(id)
	if err != nil {
		return QueueEstimate{}, fmt.Errorf("estimator: querying execution service: %w", err)
	}
	total := 0.0
	counted := 0
	for _, info := range ahead {
		if info.EstimatedRuntime <= 0 {
			continue
		}
		total += info.RemainingEstimate
		counted++
	}
	return QueueEstimate{Seconds: total, TasksAhead: counted}, nil
}
