package chaos

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

// GrantAmount is the fixed per-grant credit amount. Grants all target
// the harness user, so the final balance is exact arithmetic over the
// acked-grant count — one double-applied (or lost) grant shifts it by
// exactly GrantAmount.
const GrantAmount = 7.0

// replicaSites are the sites replica-registration ops target, matching
// the two sites every chaos deployment configures.
var replicaSites = []string{"siteA", "siteB"}

// replicaSize derives a per-op unique size in MB, so a recovered
// registration can be pinned to exactly one acked op.
func replicaSize(w, n, ops int) float64 { return float64(1 + w*ops + n) }

// user and pass are the harness user's credentials: an administrator,
// so its grants to itself are honored.
const user, pass = "alice", "pw"

// A Deployment is the system under test.
type Deployment interface {
	// URL is its endpoint; restarts keep it.
	URL() string
	// Kill stops it without a drain: the crash.
	Kill() error
	// Start brings it back over the same durable state and returns once
	// it answers.
	Start() error
}

// Config drives one chaos run.
type Config struct {
	// Server is up, on a fresh data directory, when Run begins.
	Server  Deployment
	Workers int // concurrent clients
	Ops     int // acked ops each worker must complete
	Kills   int // kill/restart cycles spread across the run
	Logf    func(format string, args ...any)
}

// OpRecord is one entry of the client-side acked-op log: the harness
// records an op here only after the server acknowledged it.
type OpRecord struct {
	Worker   int
	N        int
	RID      string // the pinned idempotency key
	Kind     string // "submit" | "grant" | "set" | "move" | "setprio" | "replica"
	Key      string // plan name / grantee / state key / dataset
	Result   string // acked result (submit: plan name; move: landed site; setprio: priority; replica: site)
	Attempts int    // deliveries tried before the ack
}

// Report is the reconciliation outcome. The run passes iff LostAcked
// and DoubleApplied are both empty.
type Report struct {
	AckedOps  int
	Attempts  int // total deliveries tried, acked ones included
	Kills     int
	Faults    Stats
	BalanceAt float64 // harness user's balance after the run

	// Server is the recovered server's own /metrics view — journal fsync
	// p99, per-method RPC p99, dedup hits — scraped after reconciliation
	// (nil if the scrape failed; it never fails the run).
	Server *loadgen.ServerStats `json:",omitempty"`

	// LostAcked lists acked ops missing from the recovered state.
	LostAcked []string
	// DoubleApplied lists ops whose effect appears more than once.
	DoubleApplied []string
}

// Passed reports whether reconciliation found the exactly-once
// invariant intact.
func (r *Report) Passed() bool {
	return len(r.LostAcked) == 0 && len(r.DoubleApplied) == 0
}

type harness struct {
	cfg          Config
	url          string
	transport    *Transport
	startBalance float64

	// acked paces the kill controller: kills fire at fractions of total
	// acked progress, so they always land while load is in flight.
	acked       atomic.Int64
	workersDone chan struct{}
}

// Run drives the configured load through the fault transport while the
// controller kills and restarts the server, then reconciles. The
// returned Report is valid when err is nil.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	h := &harness{cfg: cfg, url: cfg.Server.URL(), transport: newTransport(harnessFaults), workersDone: make(chan struct{})}

	// The grant ledger is reconciled by exact arithmetic from this
	// starting balance.
	pre, err := gae.Dial(ctx, h.url, gae.WithCredentials(user, pass), gae.WithTimeout(10*time.Second))
	if err != nil {
		return nil, fmt.Errorf("chaos: pre-run dial: %w", err)
	}
	h.startBalance, err = pre.Balance(ctx)
	pre.Close(ctx)
	if err != nil {
		return nil, fmt.Errorf("chaos: pre-run balance: %w", err)
	}

	logs := make([][]OpRecord, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			logs[w], errs[w] = h.runWorker(ctx, w)
		}(w)
	}
	killDone := make(chan error, 1)
	go func() { killDone <- h.controller(ctx) }()
	wg.Wait()
	close(h.workersDone)
	if err := <-killDone; err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		// A worker's error is then only a consequence; the cause (the
		// deadline, or a server that died) says why the run ended.
		return nil, fmt.Errorf("chaos: run ended early: %w", context.Cause(ctx))
	}
	for w, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("chaos: worker %d: %w", w, err)
		}
	}

	var acked []OpRecord
	attempts := 0
	for _, l := range logs {
		for _, r := range l {
			attempts += r.Attempts
		}
		acked = append(acked, l...)
	}
	rep := &Report{
		AckedOps: len(acked),
		Attempts: attempts,
		Kills:    cfg.Kills,
		Faults:   h.transport.Stats(),
	}
	if err := h.reconcile(ctx, acked, rep); err != nil {
		return nil, err
	}
	// Fold in the recovered server's own telemetry; a failed scrape is
	// logged and does not fail the run.
	if st, err := loadgen.ScrapeServerStats(ctx, h.url); err == nil {
		rep.Server = st
	} else {
		h.cfg.Logf("chaos: scraping %s/metrics: %v", h.url, err)
	}
	return rep, nil
}

// dial logs the worker in through the fault transport, retrying until
// the server answers (it may be mid-restart).
func (h *harness) dial(ctx context.Context) (*gae.Client, error) {
	for {
		cl, err := gae.Dial(ctx, h.url,
			gae.WithCredentials(user, pass),
			gae.WithTransport(h.transport),
			gae.WithRetries(),
			gae.WithTimeout(10*time.Second))
		if err == nil {
			return cl, nil
		}
		if err := sleep(ctx, 25*time.Millisecond); err != nil {
			return nil, fmt.Errorf("dialing %s: %w", h.url, err)
		}
	}
}

// runWorker completes Ops acked operations, each under a pinned request
// ID, retrying every op until the server acknowledges it — through
// faults, kills, and re-logins. The returned log holds acked ops only.
func (h *harness) runWorker(ctx context.Context, w int) ([]OpRecord, error) {
	cl, err := h.dial(ctx)
	if err != nil {
		return nil, err
	}
	// Each six-op cycle opens with a submission, so the cycle's move and
	// setprio always have a live plan of their own to steer. Move runs
	// before setprio: a move reschedules the task and resets its job-level
	// priority, so this order leaves the priority observable at reconcile.
	// The cycle closes by registering a replica — the data location
	// service's journaled mutation — under a per-op unique dataset.
	kinds := []string{"submit", "grant", "set", "move", "setprio", "replica"}
	var recs []OpRecord
	var lastPlan string
	for n := 0; n < h.cfg.Ops; n++ {
		kind := kinds[n%len(kinds)]
		rid := fmt.Sprintf("w%d-op%d", w, n)
		rec := OpRecord{Worker: w, N: n, RID: rid, Kind: kind}
		opCtx := gae.WithRequestID(ctx, rid)
		for {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("op %s unacked: %w", rid, err)
			}
			rec.Attempts++
			var err error
			switch kind {
			case "submit":
				name := fmt.Sprintf("plan-w%d-op%d", w, n)
				rec.Key = name
				var got string
				// Long-running tasks: the cycle's later steering ops (and
				// reconciliation) need the task still queued or running.
				got, err = cl.Submit(opCtx, gae.PlanSpec{
					Name: name,
					Tasks: []gae.TaskSpec{{
						ID: "t0", CPUSeconds: 600, Queue: "batch", Nodes: 1, ReqHours: 1,
					}},
				})
				rec.Result = got
				if err == nil {
					lastPlan = name
				}
			case "grant":
				rec.Key = user
				err = cl.Grant(opCtx, user, GrantAmount)
			case "set":
				key := fmt.Sprintf("key-w%d-op%d", w, n)
				rec.Key = key
				err = cl.SetState(opCtx, key, rid)
			case "move":
				rec.Key = lastPlan
				var res gae.MoveResult
				// Empty site: the scheduler picks the best other site, so
				// the run needs at least two sites configured.
				res, err = cl.Move(opCtx, lastPlan, "t0", "")
				rec.Result = res.Site
			case "setprio":
				rec.Key = lastPlan
				// A per-op unique priority, so reconciliation can pin this
				// exact op's effect in the recovered state.
				prio := 1 + w*h.cfg.Ops + n
				rec.Result = strconv.Itoa(prio)
				err = cl.SetPriority(opCtx, lastPlan, "t0", prio)
			case "replica":
				ds := fmt.Sprintf("ds-w%d-op%d", w, n)
				rec.Key = ds
				site := replicaSites[(w+n)%len(replicaSites)]
				rec.Result = site
				// Per-op unique size: reconciliation checks the recovered
				// catalog holds exactly this op's registration.
				err = cl.RegisterReplica(opCtx, ds, site, replicaSize(w, n, h.cfg.Ops))
			}
			if err == nil {
				break
			}
			if xmlrpc.IsFault(err, xmlrpc.FaultAuth) {
				// The restart dropped the in-memory session; log in
				// again and retry the same request ID.
				if cl, err = h.dial(ctx); err != nil {
					return nil, err
				}
				continue
			}
			if f, ok := xmlrpc.AsFault(err); ok && f.Code != xmlrpc.FaultUnavailable {
				// A semantic rejection would never succeed on retry; it
				// means the harness (or the dedup layer) is broken.
				return nil, fmt.Errorf("op %s rejected: %w", rid, err)
			}
			if err := sleep(ctx, 20*time.Millisecond); err != nil {
				return nil, fmt.Errorf("op %s unacked: %w", rid, err)
			}
		}
		h.acked.Add(1)
		recs = append(recs, rec)
	}
	return recs, nil
}

// controller performs the configured kill/restart cycles while load is
// in flight: each kill waits for its share of total acked progress, so
// crashes always interleave with traffic.
func (h *harness) controller(ctx context.Context) error {
	total := int64(h.cfg.Workers * h.cfg.Ops)
	for k := 0; k < h.cfg.Kills; k++ {
		target := total * int64(k+1) / int64(h.cfg.Kills+1)
		for h.acked.Load() < target {
			select {
			case <-h.workersDone:
				return nil // workers ended first; they decide pass/fail
			default:
			}
			if err := sleep(ctx, 2*time.Millisecond); err != nil {
				return nil
			}
		}
		h.cfg.Logf("chaos: kill %d/%d", k+1, h.cfg.Kills)
		if err := h.cfg.Server.Kill(); err != nil {
			return fmt.Errorf("chaos: kill %d: %w", k+1, err)
		}
		if err := h.cfg.Server.Start(); err != nil {
			return fmt.Errorf("chaos: restart %d: %w", k+1, err)
		}
		h.cfg.Logf("chaos: server back at %s", h.url)
	}
	return nil
}

// reconcile compares the acked-op log against the recovered server
// state over a clean (fault-free) connection.
func (h *harness) reconcile(ctx context.Context, acked []OpRecord, rep *Report) error {
	// Retry the dial briefly: the HTTP connection pool may still hold
	// connections the last kill severed.
	var cl *gae.Client
	var err error
	for {
		cl, err = gae.Dial(ctx, h.url, gae.WithCredentials(user, pass), gae.WithTimeout(10*time.Second))
		if err == nil {
			break
		}
		if serr := sleep(ctx, 25*time.Millisecond); serr != nil {
			return fmt.Errorf("chaos: reconciling dial: %w", err)
		}
	}
	defer cl.Close(ctx)

	grants := 0
	for _, r := range acked {
		switch r.Kind {
		case "submit":
			if _, err := cl.Plan(ctx, r.Key); err != nil {
				rep.LostAcked = append(rep.LostAcked,
					fmt.Sprintf("%s: acked plan %q not in recovered state: %v", r.RID, r.Key, err))
			}
		case "grant":
			grants++
		case "set":
			v, err := cl.GetState(ctx, r.Key)
			if err != nil {
				rep.LostAcked = append(rep.LostAcked,
					fmt.Sprintf("%s: acked state key %q not in recovered state: %v", r.RID, r.Key, err))
			} else if v != r.RID {
				rep.DoubleApplied = append(rep.DoubleApplied,
					fmt.Sprintf("%s: state key %q holds %q, want %q", r.RID, r.Key, v, r.RID))
			}
		case "move":
			st, err := cl.TaskStatus(ctx, r.Key, "t0")
			if err != nil {
				rep.LostAcked = append(rep.LostAcked,
					fmt.Sprintf("%s: acked move target %q not in recovered state: %v", r.RID, r.Key, err))
			} else if st.Site != r.Result {
				rep.LostAcked = append(rep.LostAcked,
					fmt.Sprintf("%s: task %q/t0 at site %q, move acked landing at %q", r.RID, r.Key, st.Site, r.Result))
			}
		case "setprio":
			st, err := cl.TaskStatus(ctx, r.Key, "t0")
			switch {
			case err != nil:
				rep.LostAcked = append(rep.LostAcked,
					fmt.Sprintf("%s: acked setprio target %q not in recovered state: %v", r.RID, r.Key, err))
			case st.Job == nil:
				rep.LostAcked = append(rep.LostAcked,
					fmt.Sprintf("%s: task %q/t0 has no pool job to carry priority %s", r.RID, r.Key, r.Result))
			case strconv.Itoa(st.Job.Priority) != r.Result:
				rep.LostAcked = append(rep.LostAcked,
					fmt.Sprintf("%s: task %q/t0 priority %d, acked %s", r.RID, r.Key, st.Job.Priority, r.Result))
			}
		case "replica":
			locs, err := cl.Replicas(ctx, r.Key)
			wantSize := replicaSize(r.Worker, r.N, h.cfg.Ops)
			switch {
			case err != nil || len(locs) == 0:
				rep.LostAcked = append(rep.LostAcked,
					fmt.Sprintf("%s: acked replica of %q not in recovered catalog: %v", r.RID, r.Key, err))
			case len(locs) > 1:
				// The dataset name is op-unique, so a second location can
				// only come from a duplicated delivery landing elsewhere.
				rep.DoubleApplied = append(rep.DoubleApplied,
					fmt.Sprintf("%s: dataset %q has %d locations, one op registered one", r.RID, r.Key, len(locs)))
			case locs[0].Site != r.Result || locs[0].SizeMB != wantSize:
				rep.LostAcked = append(rep.LostAcked,
					fmt.Sprintf("%s: dataset %q recovered at %s (%.0f MB), acked %s (%.0f MB)",
						r.RID, r.Key, locs[0].Site, locs[0].SizeMB, r.Result, wantSize))
			}
		}
	}

	// Grants all added GrantAmount to the harness user: the balance
	// pins the exact apply count. Low means an acked grant was lost;
	// high means one applied more than once.
	balance, err := cl.Balance(ctx)
	if err != nil {
		return fmt.Errorf("chaos: reconciling balance: %w", err)
	}
	rep.BalanceAt = balance
	want := h.startBalance + float64(grants)*GrantAmount
	if diff := balance - want; math.Abs(diff) > 1e-6 {
		msg := fmt.Sprintf("quota: balance %.2f, want %.2f (%d acked grants of %.0f from %.2f)",
			balance, want, grants, GrantAmount, h.startBalance)
		if diff < 0 {
			rep.LostAcked = append(rep.LostAcked, msg)
		} else {
			rep.DoubleApplied = append(rep.DoubleApplied, msg)
		}
	}
	return nil
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
