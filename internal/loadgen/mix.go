package loadgen

import (
	"context"
	"fmt"
	"math/rand"

	"repro/pkg/gae"
)

// An op is one kind of operation in a mix: the name it is counted under,
// its weight in the draw, and its call on the worker's client.
type op struct {
	name   string
	weight int
	call   func(ctx context.Context, w *worker) error
}

// A Mix is a named workload. Every worker issues open first, if it is
// set, then draws each operation from ops in proportion to its weight.
type Mix struct {
	Name string
	open *op
	ops  []op
}

// draw returns the op whose share of the total weight p, in [0, 1),
// falls in. The bounds are integer ratios, so a mix written as weights
// draws exactly as one written as cumulative fractions.
func (m Mix) draw(p float64) *op {
	total := 0
	for _, o := range m.ops {
		total += o.weight
	}
	cum := 0
	for i := range m.ops {
		cum += m.ops[i].weight
		if p < float64(cum)/float64(total) {
			return &m.ops[i]
		}
	}
	return &m.ops[len(m.ops)-1]
}

// A worker is one closed-loop client of a run, as an op's call sees it.
type worker struct {
	client *gae.Client
	id     int
	// n counts the operations the worker issued before this one.
	n      int
	rng    *rand.Rand
	prefix string
	// op is the name the current operation is counted under: its op's,
	// unless the call made another one instead.
	op string

	// The analysis session: the plans submitted, the last one accepted,
	// and the state keys set.
	submitted int
	plan      string
	keys      []string
}

// submitOp opens every analysis worker, so the monitoring and steering
// ops have a target from the first draw. Its tasks run for hours, so
// they stay alive for the whole run.
var submitOp = op{"submit", 10, func(ctx context.Context, w *worker) error {
	name := fmt.Sprintf("%s-w%d-%d", w.prefix, w.id, w.submitted)
	w.submitted++
	_, err := w.client.Submit(ctx, gae.PlanSpec{
		Name: name,
		Tasks: []gae.TaskSpec{{
			ID:         "t0",
			CPUSeconds: 3600 + w.rng.Float64()*3600,
			Queue:      "batch",
			Nodes:      1,
			ReqHours:   2,
		}},
	})
	if err == nil {
		w.plan = name
	}
	return err
}}

// Analysis is the mix of an interactive analysis session: plan
// submission, plan and steering monitoring, priority steering,
// session-state writes and reads, and grid-weather queries.
var Analysis = Mix{Name: "analysis", open: &submitOp, ops: []op{
	submitOp,
	{"plan", 20, func(ctx context.Context, w *worker) error { return errOf(w.client.Plan(ctx, w.plan)) }},
	{"taskstatus", 15, func(ctx context.Context, w *worker) error { return errOf(w.client.TaskStatus(ctx, w.plan, "t0")) }},
	{"steer", 10, func(ctx context.Context, w *worker) error {
		return w.client.SetPriority(ctx, w.plan, "t0", w.rng.Intn(10))
	}},
	{"state-set", 15, func(ctx context.Context, w *worker) error {
		key := fmt.Sprintf("%s-w%d-k%d", w.prefix, w.id, w.rng.Intn(8))
		err := w.client.SetState(ctx, key, fmt.Sprintf("v%d", w.n))
		if err == nil {
			w.keys = append(w.keys, key)
		}
		return err
	}},
	// Until the worker has set a key, it lists its keys instead.
	{"state-get", 15, func(ctx context.Context, w *worker) error {
		if len(w.keys) == 0 {
			w.op = "state-keys"
			return errOf(w.client.StateKeys(ctx))
		}
		return errOf(w.client.GetState(ctx, w.keys[w.rng.Intn(len(w.keys))]))
	}},
	{"weather", 10, func(ctx context.Context, w *worker) error { return errOf(w.client.Weather(ctx)) }},
	{"sites", 5, func(ctx context.Context, w *worker) error { return errOf(w.client.Sites(ctx)) }},
}}

// JobMon is Figure 6's mix: the Job Monitoring Service's status, info
// and wallclock reads in equal parts, each of job (worker+n)%jobs+1 at
// pool.
func JobMon(pool string, jobs int) Mix {
	job := func(w *worker) int { return (w.id+w.n)%jobs + 1 }
	return Mix{Name: "jobmon", ops: []op{
		{"jobmon.status", 1, func(ctx context.Context, w *worker) error { return errOf(w.client.JobStatus(ctx, pool, job(w))) }},
		{"jobmon.info", 1, func(ctx context.Context, w *worker) error { return errOf(w.client.Job(ctx, pool, job(w))) }},
		{"jobmon.wallclock", 1, func(ctx context.Context, w *worker) error { return errOf(w.client.JobWallclock(ctx, pool, job(w))) }},
	}}
}

// errOf drops a call's result.
func errOf[T any](_ T, err error) error { return err }
