// Package workload synthesizes the inputs of the paper's evaluation —
// an SDSC Paragon-style accounting trace for the runtime-estimator
// experiment (Figure 5) and the cost of the steering experiment's
// prime-counting job (Figure 7) — and loads the multi-tenant fairness
// scenarios the fair-share replay runs from their JSON files
// (LoadScenario).
//
// The original trace — "accounting data from the Paragon Supercomputer at
// the San Diego Supercomputing Center ... collected by Allen Downey in
// 1995" — is not redistributable, so ParagonTrace generates a synthetic
// equivalent that preserves the structure the estimator exploits: jobs
// fall into queue classes whose names encode size and expected duration,
// runtimes within a class follow a heavy-tailed (log-normal) distribution
// around the class mean, and the requested CPU-hours correlate with (but
// systematically over-state) the actual runtime. This gives the
// history-based estimator the same prediction problem the paper faced.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/estimator"
)

// PrimeJobCPUSeconds is the cost of Figure 7's job on a free reference
// (Mips = 1) CPU: the paper's "simple C++ program that calculates prime
// numbers over an input range", which it times at 283 seconds.
const PrimeJobCPUSeconds = 283.0

// QueueClass describes one Paragon queue: its node count and the
// log-normal runtime distribution of jobs submitted to it.
type QueueClass struct {
	Name       string
	Nodes      int
	MeanSecs   float64 // median runtime (seconds)
	SigmaLog   float64 // log-space standard deviation
	ChargeRate float64 // dollars per CPU-hour, as in the accounting data
}

// DefaultQueues mirrors the Paragon's queue naming convention
// (q<nodes><duration-class>): short/medium/long queues at three partition
// sizes.
var DefaultQueues = []QueueClass{
	{Name: "q16s", Nodes: 16, MeanSecs: 600, SigmaLog: 0.45, ChargeRate: 0.8},
	{Name: "q16l", Nodes: 16, MeanSecs: 7200, SigmaLog: 0.55, ChargeRate: 0.6},
	{Name: "q32m", Nodes: 32, MeanSecs: 3600, SigmaLog: 0.50, ChargeRate: 1.0},
	{Name: "q32l", Nodes: 32, MeanSecs: 14400, SigmaLog: 0.60, ChargeRate: 0.9},
	{Name: "q64s", Nodes: 64, MeanSecs: 1800, SigmaLog: 0.45, ChargeRate: 1.6},
	{Name: "q64l", Nodes: 64, MeanSecs: 28800, SigmaLog: 0.65, ChargeRate: 1.4},
}

// ParagonConfig controls trace synthesis. Jobs are drawn from
// DefaultQueues, submitted from paragonStart on, and paragonFailureRate
// of them fail and paragonInteractive are interactive.
type ParagonConfig struct {
	Jobs int
	Seed int64
}

// The trace's fixed shape.
const (
	paragonFailureRate = 0.05 // fraction of unsuccessful jobs
	paragonInteractive = 0.2  // fraction of interactive (vs batch) jobs
)

// paragonStart is when the trace's submission window opens.
var paragonStart = time.Date(1995, time.January, 1, 0, 0, 0, 0, time.UTC)

// ParagonTrace generates a deterministic synthetic accounting trace.
func ParagonTrace(cfg ParagonConfig) []estimator.TaskRecord {
	if cfg.Jobs <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	accounts := []string{"hep", "astro", "chem", "cfd", "bio"}
	logins := []string{"downey", "feitel", "smith", "taylor", "foster", "bunn", "anjum"}

	records := make([]estimator.TaskRecord, 0, cfg.Jobs)
	submit := paragonStart
	for i := 0; i < cfg.Jobs; i++ {
		q := DefaultQueues[rng.Intn(len(DefaultQueues))]
		// Log-normal runtime around the class median.
		runtime := q.MeanSecs * math.Exp(rng.NormFloat64()*q.SigmaLog)
		if runtime < 10 {
			runtime = 10
		}
		// Users over-request: requested hours = actual × U[1.1, 2.2],
		// rounded up to a round number, exactly the over-estimation bias
		// real accounting traces show.
		reqHours := runtime / 3600 * (1.1 + 1.1*rng.Float64())
		reqHours = math.Ceil(reqHours*4) / 4 // quarter-hour granularity
		jobType := "batch"
		if rng.Float64() < paragonInteractive {
			jobType = "interactive"
		}
		succeeded := rng.Float64() >= paragonFailureRate
		// Poisson-ish arrivals: exponential gaps, mean 20 minutes.
		submit = submit.Add(time.Duration(rng.ExpFloat64() * 20 * float64(time.Minute)))
		queueWait := time.Duration(rng.ExpFloat64() * 10 * float64(time.Minute))
		started := submit.Add(queueWait)
		completed := started.Add(time.Duration(runtime * float64(time.Second)))

		records = append(records, estimator.TaskRecord{
			Account:        accounts[rng.Intn(len(accounts))],
			Login:          logins[rng.Intn(len(logins))],
			Partition:      fmt.Sprintf("p%d", q.Nodes),
			Nodes:          q.Nodes,
			JobType:        jobType,
			Succeeded:      succeeded,
			ReqHours:       reqHours,
			Queue:          q.Name,
			CPURate:        q.ChargeRate,
			IdleRate:       q.ChargeRate / 4,
			Submitted:      submit,
			Started:        started,
			Completed:      completed,
			RuntimeSeconds: math.Round(runtime),
		})
	}
	return records
}

// SplitHistoryTest partitions a trace into history and test sets the way
// the paper did ("The history consisted of 100 jobs and the runtime for
// 20 jobs was estimated"). Only successful jobs are eligible as test
// cases, since their actual runtimes are the accuracy reference.
func SplitHistoryTest(trace []estimator.TaskRecord, historyN, testN int) (history, test []estimator.TaskRecord, err error) {
	if historyN+testN > len(trace) {
		return nil, nil, fmt.Errorf("workload: trace has %d jobs, need %d", len(trace), historyN+testN)
	}
	history = trace[:historyN]
	for _, r := range trace[historyN:] {
		if len(test) == testN {
			break
		}
		if r.Succeeded {
			test = append(test, r)
		}
	}
	if len(test) < testN {
		return nil, nil, fmt.Errorf("workload: only %d successful test jobs available, need %d", len(test), testN)
	}
	return history, test, nil
}
