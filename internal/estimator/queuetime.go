package estimator

import (
	"fmt"
	"sync"

	"repro/internal/condor"
	"repro/pkg/gae"
)

// EstimateDB is the paper's "separate database" of per-job runtime
// estimates recorded at submission time: "The run time of each task is
// estimated at the time of task submission and is stored in a separate
// database."
type EstimateDB struct {
	mu        sync.RWMutex
	estimates map[dbKey]float64
}

// dbKey identifies a job's estimate without the per-lookup formatting
// allocation a "pool/id" string key would cost on the scheduler's
// backlog-scoring hot path.
type dbKey struct {
	pool string
	id   int
}

// NewEstimateDB creates an empty estimate database.
func NewEstimateDB() *EstimateDB {
	return &EstimateDB{estimates: make(map[dbKey]float64)}
}

// Record stores the submission-time estimate for a job.
func (db *EstimateDB) Record(pool string, id int, seconds float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.estimates[dbKey{pool: pool, id: id}] = seconds
}

// Lookup fetches a job's recorded estimate.
func (db *EstimateDB) Lookup(pool string, id int) (float64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v, ok := db.estimates[dbKey{pool: pool, id: id}]
	return v, ok
}

// Len returns the number of recorded estimates.
func (db *EstimateDB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.estimates)
}

// QueueEstimate is a queued job's predicted wait and the number of jobs
// it was summed over.
type QueueEstimate = gae.QueueEstimate

// QueueTime predicts how long job id of pool will wait before starting —
// the paper's §6.2 algorithm:
//
//	(a) take the Condor ID of the input task;
//	(b) fetch from the execution service the IDs and elapsed runtimes of
//	    all tasks with priority greater than the input task;
//	(c) fetch those tasks' submission-time runtime estimates from the
//	    estimate database db;
//	(d) remaining = estimate − elapsed for each, and the queue time is
//	    the sum of the remainders.
//
// A job missing from db (submitted outside the GAE path) counts with the
// estimate its ad carries, and is skipped without one.
func QueueTime(pool *condor.Pool, db *EstimateDB, id int) (QueueEstimate, error) {
	ahead, err := pool.QueueAbove(id)
	if err != nil {
		return QueueEstimate{}, fmt.Errorf("estimator: querying execution service: %w", err)
	}
	total := 0.0
	counted := 0
	for _, info := range ahead {
		est, ok := db.Lookup(info.Pool, info.ID)
		if !ok {
			if info.EstimatedRuntime <= 0 {
				continue
			}
			est = info.EstimatedRuntime
		}
		remaining := est - info.WallClock.Seconds()
		if remaining < 0 {
			remaining = 0
		}
		total += remaining
		counted++
	}
	return QueueEstimate{Seconds: total, TasksAhead: counted}, nil
}
