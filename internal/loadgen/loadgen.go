// Package loadgen is the closed-loop load-generation harness for a GAE
// deployment. A workload is a Mix: a named list of operations, each a
// weight and a call on the worker's client (mix.go, which holds the
// mixes). Run drives N
// concurrent clients through a mix and reports throughput plus mean and
// percentile latency.
//
// The harness is transport-agnostic: each worker gets its client from a
// Dialer, so the same mix measures the in-process local transport
// (core.GAE.Client) and the Clarens XML-RPC wire (gae.Dial). Closed loop
// means every worker issues its next operation only after the previous
// one returns, so reported RPS is the service rate at concurrency
// Config.Clients, not an open-loop arrival rate.
package loadgen

import (
	"context"
	"fmt"
	"math"
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
	// Mix names the workload the run drew from.
	Mix     string `json:"mix"`
	Clients int    `json:"clients"`
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
	// Latency mean and nearest-rank percentiles over individual
	// operations, in milliseconds.
	MeanMillis float64 `json:"mean_ms"`
	P50Millis  float64 `json:"p50_ms"`
	P95Millis  float64 `json:"p95_ms"`
	P99Millis  float64 `json:"p99_ms"`
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

// Run drives cfg.Clients workers through mix and aggregates the
// measurements. Dial failures abort the run; operation failures are
// counted in Result.Errors and the run continues.
func Run(ctx context.Context, mix Mix, cfg Config, dial Dialer) (Result, error) {
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
			perWorker[w] = mix.run(ctx, cfg, client, w)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := Result{
		Mix:            mix.Name,
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
	var total time.Duration
	for _, samples := range perWorker {
		for _, s := range samples {
			res.Ops++
			res.ByOp[s.op]++
			if s.err != nil {
				res.Errors++
				res.ErrorsByOp[s.op]++
			}
			lat = append(lat, s.d)
			total += s.d
		}
	}
	if elapsed > 0 {
		res.RPS = float64(res.Ops) / elapsed.Seconds()
	}
	if res.Ops > 0 {
		res.MeanMillis = float64(total) / float64(res.Ops) / float64(time.Millisecond)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.P50Millis = percentileMillis(lat, 0.50)
	res.P95Millis = percentileMillis(lat, 0.95)
	res.P99Millis = percentileMillis(lat, 0.99)
	return res, nil
}

// percentileMillis reads the q-th percentile from sorted latencies using
// the nearest-rank method: the ⌈q·n⌉-th smallest of n samples.
func percentileMillis(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / float64(time.Millisecond)
}

// run is one closed-loop worker: the mix's open op, if it has one, then
// draws from the mix until it has issued cfg.Ops operations.
func (m Mix) run(ctx context.Context, cfg Config, client *gae.Client, id int) []sample {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
	w := &worker{client: client, id: id, rng: rng, prefix: cfg.Prefix}
	samples := make([]sample, 0, cfg.Ops)
	do := func(o *op) {
		w.op = o.name
		t0 := time.Now()
		err := o.call(ctx, w)
		samples = append(samples, sample{op: w.op, d: time.Since(t0), err: err})
		w.n++
	}
	if m.open != nil {
		do(m.open)
	}
	for len(samples) < cfg.Ops {
		do(m.draw(w.rng.Float64()))
	}
	return samples
}
