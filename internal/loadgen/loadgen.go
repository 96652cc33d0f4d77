// Package loadgen is the closed-loop load-generation harness for a GAE
// deployment. It drives N concurrent clients through a mixed analysis
// workload — plan submission, plan/steering monitoring, priority
// steering, session-state reads and writes, and grid-weather queries —
// and reports throughput plus latency percentiles.
//
// The harness is transport-agnostic: each worker gets its client from a
// Dialer, so the same workload measures the in-process local transport
// (core.GAE.Client) and the Clarens XML-RPC wire (gae.Dial). Closed loop
// means every worker issues its next operation only after the previous
// one returns, so reported RPS is the service rate at concurrency
// Config.Clients, not an open-loop arrival rate.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/pkg/gae"
)

// Dialer yields the client a worker uses for its whole run. It is called
// once per worker with the worker's index.
type Dialer func(ctx context.Context, worker int) (*gae.Client, error)

// Config sizes a load-generation run.
type Config struct {
	// Clients is the number of concurrent closed-loop workers (default 1).
	Clients int
	// Ops is the number of operations each worker issues (default 1).
	Ops int
	// Seed makes the per-worker operation mix reproducible.
	Seed int64
	// Prefix namespaces the plan names and state keys the run creates
	// (default "load") so repeated runs against one deployment — or one
	// durable data directory — never collide.
	Prefix string
}

// Result is the outcome of one run.
type Result struct {
	Clients int `json:"clients"`
	// Ops counts completed operations, successful or not.
	Ops    int `json:"ops"`
	Errors int `json:"errors"`
	// ByOp counts operations per workload kind.
	ByOp map[string]int `json:"by_op,omitempty"`
	// ErrorsByOp counts failed operations per workload kind.
	ErrorsByOp map[string]int `json:"errors_by_op,omitempty"`
	// Retries sums the clients' transport-level re-attempts (zero unless
	// the dialer enabled a retry policy).
	Retries        int64   `json:"retries"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// RPS is Ops / ElapsedSeconds across all workers.
	RPS float64 `json:"rps"`
	// Latency percentiles over individual operations, in milliseconds.
	P50Millis float64 `json:"p50_ms"`
	P95Millis float64 `json:"p95_ms"`
	P99Millis float64 `json:"p99_ms"`
	// Server holds the server-side view from the deployment's /metrics
	// (nil when the target exposes none).
	Server *ServerStats `json:"server,omitempty"`
}

// sample is one timed operation.
type sample struct {
	op  string
	d   time.Duration
	err error
}

// Run executes the workload and aggregates the measurements. Dial
// failures abort the run; operation failures are counted in
// Result.Errors and the run continues.
func Run(ctx context.Context, cfg Config, dial Dialer) (Result, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 1
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "load"
	}

	perWorker := make([][]sample, cfg.Clients)
	clients := make([]*gae.Client, cfg.Clients)
	dialErrs := make([]error, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := dial(ctx, w)
			if err != nil {
				dialErrs[w] = fmt.Errorf("loadgen: worker %d dial: %w", w, err)
				return
			}
			clients[w] = client
			perWorker[w] = runWorker(ctx, cfg, client, w)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := Result{
		Clients:        cfg.Clients,
		ByOp:           make(map[string]int),
		ErrorsByOp:     make(map[string]int),
		ElapsedSeconds: elapsed.Seconds(),
	}
	for _, c := range clients {
		if c != nil {
			res.Retries += c.TransportStats().Retries
			c.Close(ctx) //nolint:errcheck // best-effort logout; the run is over
		}
	}
	for _, err := range dialErrs {
		if err != nil {
			return Result{}, err
		}
	}
	var lat []time.Duration
	for _, samples := range perWorker {
		for _, s := range samples {
			res.Ops++
			res.ByOp[s.op]++
			if s.err != nil {
				res.Errors++
				res.ErrorsByOp[s.op]++
			}
			lat = append(lat, s.d)
		}
	}
	if elapsed > 0 {
		res.RPS = float64(res.Ops) / elapsed.Seconds()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.P50Millis = percentileMillis(lat, 0.50)
	res.P95Millis = percentileMillis(lat, 0.95)
	res.P99Millis = percentileMillis(lat, 0.99)
	return res, nil
}

// percentileMillis reads the q-th percentile from sorted latencies using
// the nearest-rank method.
func percentileMillis(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// runWorker is one closed-loop client: a weighted mix of the operations
// an interactive analysis session performs. Plans are submitted with
// multi-hour tasks so monitoring and steering targets stay alive for the
// whole run.
func runWorker(ctx context.Context, cfg Config, client *gae.Client, w int) []sample {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
	samples := make([]sample, 0, cfg.Ops)
	var (
		lastPlan  string
		submitted int
		keysSet   []string
	)
	timed := func(op string, call func() error) {
		t0 := time.Now()
		err := call()
		samples = append(samples, sample{op: op, d: time.Since(t0), err: err})
	}
	// Every worker opens with a submission so monitor/steer ops have a
	// target from the first dice roll.
	submit := func() {
		name := fmt.Sprintf("%s-w%d-%d", cfg.Prefix, w, submitted)
		submitted++
		spec := gae.PlanSpec{
			Name: name,
			Tasks: []gae.TaskSpec{{
				ID:         "t0",
				CPUSeconds: 3600 + rng.Float64()*3600,
				Queue:      "batch",
				Nodes:      1,
				ReqHours:   2,
			}},
		}
		timed("submit", func() error {
			_, err := client.Submit(ctx, spec)
			if err == nil {
				lastPlan = name
			}
			return err
		})
	}
	submit()
	for len(samples) < cfg.Ops {
		switch p := rng.Float64(); {
		case p < 0.10:
			submit()
		case p < 0.30:
			timed("plan", func() error {
				_, err := client.Plan(ctx, lastPlan)
				return err
			})
		case p < 0.45:
			timed("taskstatus", func() error {
				_, err := client.TaskStatus(ctx, lastPlan, "t0")
				return err
			})
		case p < 0.55:
			timed("steer", func() error {
				return client.SetPriority(ctx, lastPlan, "t0", rng.Intn(10))
			})
		case p < 0.70:
			key := fmt.Sprintf("%s-w%d-k%d", cfg.Prefix, w, rng.Intn(8))
			timed("state-set", func() error {
				err := client.SetState(ctx, key, fmt.Sprintf("v%d", len(samples)))
				if err == nil {
					keysSet = append(keysSet, key)
				}
				return err
			})
		case p < 0.85:
			if len(keysSet) == 0 {
				timed("state-keys", func() error {
					_, err := client.StateKeys(ctx)
					return err
				})
				continue
			}
			key := keysSet[rng.Intn(len(keysSet))]
			timed("state-get", func() error {
				_, err := client.GetState(ctx, key)
				return err
			})
		case p < 0.95:
			timed("weather", func() error {
				_, err := client.Weather(ctx)
				return err
			})
		default:
			timed("sites", func() error {
				_, err := client.Sites(ctx)
				return err
			})
		}
	}
	return samples
}
