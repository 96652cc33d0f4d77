package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/clarens"
	"repro/internal/core"
	"repro/internal/scheduler"
)

// Fig6Config parameterizes the Job Monitoring Service load test.
type Fig6Config struct {
	// ClientCounts are the parallel-client levels; the paper used
	// {1, 2, 3, 5, 25, 50, 100}.
	ClientCounts []int
	// RequestsPerClient is how many monitoring calls each client issues
	// per level (default 25).
	RequestsPerClient int
	// Jobs is how many jobs populate the monitored pool (default 10).
	Jobs int
}

// DefaultFig6 matches the paper's client ladder.
func DefaultFig6() Fig6Config {
	return Fig6Config{
		ClientCounts:      []int{1, 2, 3, 5, 25, 50, 100},
		RequestsPerClient: 25,
		Jobs:              10,
	}
}

// Fig6Result carries the measured response-time ladder.
type Fig6Result struct {
	Table *Table
	// AvgMillis[i] is the mean response time at ClientCounts[i].
	AvgMillis []float64
}

// Fig6 reproduces "Response times for queries to Job Monitoring Service":
// the service is hosted on a real Clarens HTTP endpoint (loopback) and
// hit by increasing numbers of concurrent XML-RPC clients; the row for
// each level is the mean time to fulfil a request. Unlike the other
// experiments this one measures real wall-clock time, as the paper did
// on its Windows-XP JClarens host.
func Fig6(cfg Fig6Config) (*Fig6Result, error) {
	if len(cfg.ClientCounts) == 0 {
		cfg.ClientCounts = DefaultFig6().ClientCounts
	}
	if cfg.RequestsPerClient <= 0 {
		cfg.RequestsPerClient = 25
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 10
	}
	g := core.New(core.Config{
		Sites: []core.SiteSpec{
			{Name: "siteA", Nodes: 4, CostPerCPUSecond: 0.01},
		},
		Users: []core.UserSpec{{Name: "client", Password: "pw", Credits: 1e6}},
	})
	url, err := g.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer g.Stop()

	// Populate the pool with jobs in mixed states.
	tasks := make([]scheduler.TaskPlan, cfg.Jobs)
	for i := range tasks {
		tasks[i] = scheduler.TaskPlan{
			ID: fmt.Sprintf("t%d", i), CPUSeconds: float64(50 + 10*i),
			Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
		}
	}
	if _, err := g.Scheduler.Submit(&scheduler.JobPlan{Name: "load", Owner: "client", Tasks: tasks}); err != nil {
		return nil, err
	}
	g.Run(60 * time.Second) // some complete, some run, some queue

	res := &Fig6Result{
		Table: &Table{
			Title:   "Figure 6: Response times for queries to Job Monitoring Service",
			Columns: []string{"parallel_clients", "avg_response_ms"},
		},
	}
	ctx := context.Background()
	for _, n := range cfg.ClientCounts {
		avg, err := measureLevel(ctx, url, n, cfg.RequestsPerClient, cfg.Jobs)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig6 level %d: %w", n, err)
		}
		ms := avg.Seconds() * 1000
		res.AvgMillis = append(res.AvgMillis, ms)
		res.Table.Rows = append(res.Table.Rows, []float64{float64(n), ms})
	}
	return res, nil
}

// measureLevel runs n concurrent clients, each issuing reqs monitoring
// calls, and returns the mean per-request latency.
func measureLevel(ctx context.Context, url string, n, reqs, jobs int) (time.Duration, error) {
	clients := make([]*clarens.Client, n)
	for i := range clients {
		c := clarens.NewClient(url)
		if err := c.Login(ctx, "client", "pw"); err != nil {
			return 0, err
		}
		clients[i] = c
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		total   time.Duration
		count   int
		callErr error
	)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *clarens.Client) {
			defer wg.Done()
			defer c.Close() // no idle connection may outlive the level: see xmlrpc.NewClient
			for r := 0; r < reqs; r++ {
				jobID := (i+r)%jobs + 1
				start := time.Now() //lint:walltime benchmark harness: measures real RPC round-trip latency over the wire
				var err error
				// Mix the call types as concurrent analysis clients would.
				switch r % 3 {
				case 0:
					_, err = c.Call(ctx, "jobmon.status", "siteA", jobID)
				case 1:
					_, err = c.Call(ctx, "jobmon.info", "siteA", jobID)
				default:
					_, err = c.Call(ctx, "jobmon.wallclock", "siteA", jobID)
				}
				elapsed := time.Since(start) //lint:walltime benchmark harness: measures real RPC round-trip latency over the wire
				mu.Lock()
				if err != nil && callErr == nil {
					callErr = err
				}
				total += elapsed
				count++
				mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()
	if callErr != nil {
		return 0, callErr
	}
	if count == 0 {
		return 0, fmt.Errorf("no requests issued")
	}
	return total / time.Duration(count), nil
}
