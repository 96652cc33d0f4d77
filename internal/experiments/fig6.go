package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/scheduler"
	"repro/pkg/gae"
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
// hit by increasing numbers of concurrent XML-RPC clients, each running
// loadgen's jobmon mix; the row for each level is the mean time to fulfil
// a request. Unlike the other experiments this one measures real
// wall-clock time, as the paper did on its Windows-XP JClarens host.
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
	mix := loadgen.JobMon("siteA", cfg.Jobs)
	dial := func(ctx context.Context, _ int) (*gae.Client, error) {
		return gae.Dial(ctx, url, gae.WithCredentials("client", "pw"))
	}
	for _, n := range cfg.ClientCounts {
		level, err := loadgen.Run(ctx, mix, loadgen.Config{Clients: n, Ops: cfg.RequestsPerClient}, dial)
		if err == nil && level.Errors > 0 {
			err = fmt.Errorf("%d of %d requests failed", level.Errors, level.Ops)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: fig6 level %d: %w", n, err)
		}
		res.AvgMillis = append(res.AvgMillis, level.MeanMillis)
		res.Table.Rows = append(res.Table.Rows, []float64{float64(n), level.MeanMillis})
	}
	return res, nil
}
