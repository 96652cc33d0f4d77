package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/clarens"
	"repro/internal/durable"
	"repro/internal/scheduler"
	"repro/internal/steering"
	"repro/internal/telemetry"
	"repro/pkg/gae"
)

// This file makes a GAE deployment crash-recoverable. The durable layer
// has two halves:
//
//   - Checkpoint serializes every piece of mutable deployment state —
//     pool queues and claims, fair-share accounts, the quota ledger, the
//     replica catalog, submitted plans, steering preference, and the
//     per-user analysis-session state — into one versioned snapshot,
//     then truncates the RPC journal it supersedes.
//
//   - Between checkpoints, every mutating RPC on either transport (the
//     local client and the Clarens XML-RPC endpoint share one service
//     binding) is appended to the journal after it succeeds and before
//     it is acknowledged: an acknowledged call is a recoverable call.
//
// AttachStore runs recovery: restore the snapshot (advancing the
// simulation engine to the capture instant), then re-apply the journal
// tail through the same service layer the live calls used — each op at
// its recorded simulated time, as the original user. Leases reconcile in
// the pools: a running job whose machine claim outlived the crash
// continues with its remaining work; an expired claim requeues the job.

// DefaultLeaseTTL is the machine-claim lease horizon stamped into
// snapshots: a snapshot older than this, in simulated time, recovers with
// its claims expired and the affected jobs requeued.
const DefaultLeaseTTL = 10 * time.Minute

// AttachStore binds a durable store to the deployment. The store's
// recovered contents are applied first — snapshot restore, then journal
// tail replay — and every subsequent mutating RPC is journaled. Attach at
// most once, before serving traffic.
func (g *GAE) AttachStore(s *durable.Store) error {
	s.SetTelemetry(g.Telemetry)
	snap, tail := s.TakeRecovery()
	if snap != nil {
		if err := g.RestoreState(snap.SimTime, &snap.State); err != nil {
			return fmt.Errorf("core: restoring snapshot: %w", err)
		}
	}
	for _, op := range tail {
		if err := g.ApplyOp(op); err != nil {
			return fmt.Errorf("core: replaying journal op %d (%s.%s): %w", op.Seq, op.Service, op.Method, err)
		}
	}
	g.persistMu.Lock()
	g.store = s
	g.persistMu.Unlock()
	return nil
}

// Checkpoint streams the deployment state into the store — live state
// into the snapshot, the ledger entries billed since the last checkpoint
// into the history segment — and truncates the journal it supersedes. It
// holds persistMu, so no journaled RPC applies while the state is read.
// Without an attached store it does nothing.
func (g *GAE) Checkpoint() error {
	g.persistMu.Lock()
	defer g.persistMu.Unlock()
	if g.store == nil {
		return nil
	}
	return g.store.Checkpoint(g.Now(), g.emitStateLocked)
}

// CaptureState exports the deployment's full mutable state in the
// canonical (sorted, settled) snapshot form. The recovery test suite
// compares its encoded bytes across a kill and restart.
func (g *GAE) CaptureState() (durable.State, error) {
	g.persistMu.Lock()
	defer g.persistMu.Unlock()
	return durable.CollectState(func(emit durable.Emit) error { return g.emitStateLocked(0, emit) })
}

// emitStateLocked is the one list of what a deployment's state is made
// of: it exports each durable.State section in field order and hands it
// to emit before exporting the next, so a checkpoint holds one section at
// a time. Checkpoint writes the sections out; CaptureState collects them.
// The ledger is emitted from entry ledgerFrom on: everything for a
// capture, what the store's history segment lacks for a checkpoint.
func (g *GAE) emitStateLocked(ledgerFrom int, emit durable.Emit) error {
	sites := g.Scheduler.Sites()
	pools := make([]durable.PoolState, 0, len(sites))
	for _, site := range sites {
		pool, _ := g.Pool(site)
		pools = append(pools, pool.Export(DefaultLeaseTTL))
	}
	emit("pools", pools)
	var fair *durable.FairShareState
	if g.FairShare != nil {
		fair = g.FairShare.Export()
	}
	emit("fair_share", fair)
	quota, err := g.Quota.Export(ledgerFrom)
	if err != nil {
		return err
	}
	emit("quota", quota)
	emit("replicas", g.Replicas.Export())
	plans, err := g.exportPlans()
	if err != nil {
		return err
	}
	emit("plans", plans)
	emit("steering", durable.SteeringState{Preference: g.Steering.Preference.String()})
	emit("estimator", g.exportEstimator())
	emit("user_state", g.State.Export())
	emit("idempotency", g.idem.export())
	return nil
}

// exportEstimator captures the site histories, which feed placement and
// the EstimatedRuntime stamped into job ads at submission — without them,
// the first post-restart submit would diverge from its pre-crash twin.
// The stamped estimates need no section of their own: they live in the
// job ads the pools section carries.
func (g *GAE) exportEstimator() *durable.EstimatorState {
	var est durable.EstimatorState
	for _, site := range g.Scheduler.Sites() {
		svc, ok := g.Scheduler.SiteServicesFor(site)
		if !ok || svc.Runtime == nil || svc.Runtime.History == nil {
			continue
		}
		if recs := svc.Runtime.History.Export(); len(recs) > 0 {
			est.Sites = append(est.Sites, durable.SiteHistory{Site: site, Records: recs})
		}
	}
	if len(est.Sites) == 0 {
		return nil
	}
	return &est
}

// exportPlans captures the scheduler's plan table, sorted by name; an
// empty table is an empty list, never null.
func (g *GAE) exportPlans() ([]durable.PlanState, error) {
	cps := g.Scheduler.Plans()
	plans := make([]durable.PlanState, 0, len(cps))
	for _, cp := range cps {
		name := cp.Plan.Name
		spec, err := json.Marshal(PlanSpecOf(cp.Plan))
		if err != nil {
			return nil, fmt.Errorf("core: encoding plan %q: %w", name, err)
		}
		plans = append(plans, durable.PlanState{
			Name:  name,
			Owner: cp.Plan.Owner,
			Spec:  spec,
			Tasks: scheduler.ExportTasks(cp),
		})
	}
	return plans, nil
}

// RestoreState rebuilds the deployment from an exported state captured
// at simTime. The engine is advanced to the capture instant first, so
// restored leases, decayed usage, and timestamps line up; site storage
// is re-materialized from the replica catalog so restored plans can
// stage their inputs. It must run on a freshly built deployment.
func (g *GAE) RestoreState(simTime time.Time, st *durable.State) error {
	if d := simTime.Sub(g.Now()); d > 0 {
		g.Grid.Engine.RunFor(d)
	}

	if err := g.Replicas.Restore(st.Replicas); err != nil {
		return err
	}
	for _, l := range st.Replicas {
		site := g.Grid.Site(l.Site)
		if site == nil {
			return fmt.Errorf("core: restored replica of %q at unknown site %q", l.Dataset, l.Site)
		}
		if _, ok := site.Storage().Get(l.Dataset); !ok {
			if err := site.Storage().Put(l.Dataset, l.SizeMB); err != nil {
				return err
			}
		}
	}

	g.Quota.Restore(st.Quota)
	if g.FairShare != nil {
		g.FairShare.Restore(st.FairShare)
	}
	g.State.Restore(st.UserState)
	g.idem.restore(st.Idempotency)
	if st.Steering.Preference != "" {
		pref, err := steering.ParsePreference(st.Steering.Preference)
		if err != nil {
			return err
		}
		g.Steering.Preference = pref
	}

	if st.Estimator != nil {
		for _, sh := range st.Estimator.Sites {
			svc, ok := g.Scheduler.SiteServicesFor(sh.Site)
			if !ok || svc.Runtime == nil || svc.Runtime.History == nil {
				return fmt.Errorf("core: snapshot carries history for unknown site %q", sh.Site)
			}
			svc.Runtime.History.Restore(sh.Records)
		}
	}

	for _, ps := range st.Pools {
		pool, ok := g.Pool(ps.Name)
		if !ok {
			return fmt.Errorf("core: snapshot names unknown site %q", ps.Name)
		}
		if err := pool.Restore(ps); err != nil {
			return err
		}
	}

	for _, pl := range st.Plans {
		var spec gae.PlanSpec
		if err := json.Unmarshal(pl.Spec, &spec); err != nil {
			return fmt.Errorf("core: decoding plan %q: %w", pl.Name, err)
		}
		plan, err := planFromSpec(spec, pl.Owner)
		if err != nil {
			return fmt.Errorf("core: rebuilding plan %q: %w", pl.Name, err)
		}
		if _, err := g.Scheduler.RestorePlan(plan, pl.Tasks); err != nil {
			return err
		}
	}
	g.Scheduler.Pump()
	return nil
}

// ApplyOp re-applies one journaled RPC: the engine advances to the op's
// recorded simulated time, then the call runs through the unjournaled
// service layer as the recorded user — the same code path that served it
// live — on its recorded wire arguments. Ops that carried an idempotency
// key are re-recorded into the duplicate-suppression window (a journaled
// op is an acknowledged op), with the same result shapes journalCall
// recorded live, so a retry arriving after recovery still dedups.
func (g *GAE) ApplyOp(op durable.Op) error {
	if d := op.Time.Sub(g.Now()); d > 0 {
		g.Grid.Engine.RunFor(d)
	}
	fq := op.Service + "." + op.Method
	replay, ok := g.replay[fq]
	if !ok {
		return fmt.Errorf("core: journal op %d names unknown method %s", op.Seq, fq)
	}
	var args []json.RawMessage
	if err := json.Unmarshal(op.Args, &args); err != nil {
		return fmt.Errorf("core: decoding %s args: %w", fq, err)
	}
	out, err := replay(context.WithValue(context.Background(), replayUserKey{}, op.User), args)
	if err != nil {
		return err
	}
	if op.RequestID != "" && op.User != "" {
		if res, merr := json.Marshal(out); merr == nil {
			g.idem.record(op.User, op.RequestID, fq, res, op.Seq, op.Time)
		}
	}
	return nil
}

// replayUserKey carries a replayed op's recorded user to the services
// replayTable is built over.
type replayUserKey struct{}

func replayUser(ctx context.Context) string {
	user, _ := ctx.Value(replayUserKey{}).(string)
	return user
}

func replay1[A, R any](fn func(context.Context, A) (R, error)) replayFn {
	return func(ctx context.Context, args []json.RawMessage) (any, error) {
		var a A
		if err := decodeArgs(args, &a); err != nil {
			return nil, err
		}
		return fn(ctx, a)
	}
}

func replay2[A, B, R any](fn func(context.Context, A, B) (R, error)) replayFn {
	return func(ctx context.Context, args []json.RawMessage) (any, error) {
		var a A
		var b B
		if err := decodeArgs(args, &a, &b); err != nil {
			return nil, err
		}
		return fn(ctx, a, b)
	}
}

func replay3[A, B, C, R any](fn func(context.Context, A, B, C) (R, error)) replayFn {
	return func(ctx context.Context, args []json.RawMessage) (any, error) {
		var a A
		var b B
		var c C
		if err := decodeArgs(args, &a, &b, &c); err != nil {
			return nil, err
		}
		return fn(ctx, a, b, c)
	}
}

// decodeArgs decodes each recorded argument into its parameter.
func decodeArgs(args []json.RawMessage, dst ...any) error {
	if len(args) != len(dst) {
		return fmt.Errorf("core: journal op has %d arguments, want %d", len(args), len(dst))
	}
	for i, d := range dst {
		if err := json.Unmarshal(args[i], d); err != nil {
			return fmt.Errorf("core: decoding journal argument %d: %w", i, err)
		}
	}
	return nil
}

// acked2 and acked3 give a command the result its journaled call
// acknowledges: the conventional true.
func acked2[A, B any](fn func(context.Context, A, B) error) func(context.Context, A, B) (bool, error) {
	return func(ctx context.Context, a A, b B) (bool, error) { return true, fn(ctx, a, b) }
}

func acked3[A, B, C any](fn func(context.Context, A, B, C) error) func(context.Context, A, B, C) (bool, error) {
	return func(ctx context.Context, a A, b B, c C) (bool, error) { return true, fn(ctx, a, b, c) }
}

// journalCall runs the mutating RPC fq ("service.method") with duplicate
// suppression and, once it has succeeded, journals it — the call is
// acknowledged only after its record is fsynced, so every acknowledged
// mutation survives a crash. args gives the call's positional wire
// arguments, in wire order; it is deferred so wrappers can journal values
// resolved by the call itself (the site a move landed on, the preference
// applied).
//
// Under persistMu it looks the request ID up in the per-user window,
// applies the call, enqueues its journal record and records the result in
// the window, so journal order is apply order; it waits for the fsync,
// which concurrent calls share, after releasing the lock. A delivery whose
// ID the window holds — the retry of an ack-lost call, or a duplicate of
// one still waiting on its fsync — returns the recorded result without
// re-applying, once everything enqueued so far is durable. A failed fsync
// fails every caller waiting on it, duplicates included, until the next
// checkpoint persists what was applied. A call whose enqueue failed is not
// recorded: recovery rolls the un-journaled mutation back.
func journalCall[T any](g *GAE, ctx context.Context, user, fq string, args func() []any, apply func() (T, error)) (out T, err error) {
	var zero T
	rid := clarens.RequestID(ctx)
	span := telemetry.Span{RequestID: rid, Method: fq, User: user, Start: time.Now()} //lint:walltime telemetry: real RPC latency span, never read back into deployment state
	// applied is when apply returned (zero if it never ran); appending is
	// set once the journal enqueue starts.
	var applied time.Time
	appending := false
	defer func() { g.finishSpan(&span, applied, appending, err) }()
	var store *durable.Store
	var batch uint64 // the journal batch to wait on
	out, err = func() (T, error) {
		g.persistMu.Lock()
		defer g.persistMu.Unlock()
		store = g.store
		if rid != "" && user != "" {
			if e, ok := g.idem.lookup(user, rid); ok {
				if e.Method != fq {
					return zero, fmt.Errorf("core: request id %q reused for %s (recorded for %s)", rid, fq, e.Method)
				}
				var recorded T
				if len(e.Result) > 0 {
					if err := json.Unmarshal(e.Result, &recorded); err != nil {
						return zero, fmt.Errorf("core: decoding recorded %s result: %w", fq, err)
					}
				}
				span.Dedup = true
				if store != nil {
					batch = store.Enqueued()
				}
				return recorded, nil
			}
		}
		out, err := apply()
		applied = time.Now() //lint:walltime telemetry: real RPC latency span, never read back into deployment state
		if err != nil {
			return zero, err
		}
		// One sim-time read serves both the journal record and the window
		// entry: replay re-records at the journaled op.Time, so the live and
		// replayed windows must stamp the identical instant (the recovery
		// byte-identity suite compares the two).
		now := g.Now()
		if store != nil {
			appending = true
			service, method, _ := strings.Cut(fq, ".")
			if span.Seq, batch, err = store.Enqueue(now, user, service, method, rid, args()); err != nil {
				g.durabilityLost(err)
				return zero, err
			}
		}
		if rid != "" && user != "" {
			if res, merr := json.Marshal(out); merr == nil {
				g.idem.record(user, rid, fq, res, span.Seq, now)
			}
		}
		return out, nil
	}()
	if err != nil {
		return zero, err
	}
	if store != nil {
		if err := store.Wait(batch); err != nil {
			g.durabilityLost(err)
			return zero, err
		}
	}
	return out, nil
}

// OnDurabilityLoss registers fn to run — once, on the first occurrence —
// when a journal append fails after its mutation already applied. See
// the GAE field doc: the only safe response for a serving process is to
// crash and recover from the journal; gae-server installs an exiting
// hook. Without a hook the journal's sticky error keeps nacking appends
// until the checkpoint cycle truncates it (the embedded/test behavior).
func (g *GAE) OnDurabilityLoss(fn func(error)) { g.onDurabilityLoss = fn }

func (g *GAE) durabilityLost(err error) {
	if g.onDurabilityLoss == nil {
		return
	}
	g.durabilityLossOnce.Do(func() { g.onDurabilityLoss(err) })
}

// finishSpan closes the span of one journalCall exit — success, dedup,
// request-ID mismatch, handler error or journal error — and records it
// with the method's request, error and latency observations. The handler
// stage runs from the start until apply returned, so it includes the wait
// for persistMu; the journal stage runs from there to the end once an
// enqueue was attempted; a window hit ran neither.
func (g *GAE) finishSpan(span *telemetry.Span, applied time.Time, appending bool, err error) {
	end := time.Now() //lint:walltime telemetry: real RPC latency span, never read back into deployment state
	total := end.Sub(span.Start)
	mo := g.obs.forMethod(span.Method)
	mo.requests.Inc()
	mo.latency.Observe(total.Seconds())
	span.TotalMillis = millis(total)
	if err != nil {
		mo.errors.Inc()
		span.Err = err.Error()
	}
	if !applied.IsZero() {
		span.Stages = []telemetry.Stage{{Name: "handler", Millis: millis(applied.Sub(span.Start))}}
		if appending {
			span.Stages = append(span.Stages, telemetry.Stage{Name: "journal", Millis: millis(end.Sub(applied))})
		}
	}
	g.trace.Add(*span)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// journalDo is journalCall for void mutations; the recorded result is
// the conventional true.
func journalDo(g *GAE, ctx context.Context, user, fq string, args func() []any, apply func() error) error {
	_, err := journalCall(g, ctx, user, fq, args,
		func() (bool, error) { return true, apply() })
	return err
}

// journaled wraps the mutating methods of every service with journal
// appends. Read-only methods pass through the embedded interfaces.
func (g *GAE) journaled(svcs gae.Services, userOf gae.UserResolver) gae.Services {
	svcs.Scheduler = journaledScheduler{Scheduler: svcs.Scheduler, g: g, userOf: userOf}
	svcs.Steering = journaledSteering{Steering: svcs.Steering, g: g, userOf: userOf}
	svcs.State = journaledState{State: svcs.State, g: g, userOf: userOf}
	svcs.Replica = journaledReplica{Replica: svcs.Replica, g: g, userOf: userOf}
	svcs.Quota = journaledQuota{Quota: svcs.Quota, g: g, userOf: userOf}
	return svcs
}

// replayFn re-applies one journaled call on its recorded wire arguments
// and returns the result the live call acknowledged.
type replayFn func(ctx context.Context, args []json.RawMessage) (any, error)

// replayTable maps every method the journaled wrappers below record, by
// its journal name, to its implementation in the unjournaled services s.
func replayTable(s gae.Services) map[string]replayFn {
	return map[string]replayFn{
		"scheduler.submit":       replay1(s.Scheduler.Submit),
		"steering.kill":          replay2(acked2(s.Steering.Kill)),
		"steering.pause":         replay2(acked2(s.Steering.Pause)),
		"steering.resume":        replay2(acked2(s.Steering.Resume)),
		"steering.move":          replay3(s.Steering.Move),
		"steering.setpriority":   replay3(acked3(s.Steering.SetPriority)),
		"steering.setpreference": replay1(s.Steering.SetPreference),
		"state.set":              replay2(acked2(s.State.SetState)),
		"state.delete":           replay1(s.State.DeleteState),
		"replica.register":       replay3(acked3(s.Replica.RegisterReplica)),
		"quota.grant":            replay2(acked2(s.Quota.Grant)),
		"quota.charge":           replay1(s.Quota.ChargeUsage),
	}
}

type journaledScheduler struct {
	gae.Scheduler
	g      *GAE
	userOf gae.UserResolver
}

func (s journaledScheduler) Submit(ctx context.Context, spec gae.PlanSpec) (string, error) {
	return journalCall(s.g, ctx, s.userOf(ctx), "scheduler.submit",
		func() []any { return []any{spec} },
		func() (string, error) { return s.Scheduler.Submit(ctx, spec) })
}

type journaledSteering struct {
	gae.Steering
	g      *GAE
	userOf gae.UserResolver
}

func (s journaledSteering) Kill(ctx context.Context, plan, task string) error {
	return journalDo(s.g, ctx, s.userOf(ctx), "steering.kill",
		func() []any { return []any{plan, task} },
		func() error { return s.Steering.Kill(ctx, plan, task) })
}

func (s journaledSteering) Pause(ctx context.Context, plan, task string) error {
	return journalDo(s.g, ctx, s.userOf(ctx), "steering.pause",
		func() []any { return []any{plan, task} },
		func() error { return s.Steering.Pause(ctx, plan, task) })
}

func (s journaledSteering) Resume(ctx context.Context, plan, task string) error {
	return journalDo(s.g, ctx, s.userOf(ctx), "steering.resume",
		func() []any { return []any{plan, task} },
		func() error { return s.Steering.Resume(ctx, plan, task) })
}

func (s journaledSteering) Move(ctx context.Context, plan, task, site string) (gae.MoveResult, error) {
	var res gae.MoveResult
	// The journal records the site the move actually landed on, not the
	// request's (possibly empty) preference: replay must not re-run site
	// selection against monitoring state that no longer exists.
	return journalCall(s.g, ctx, s.userOf(ctx), "steering.move",
		func() []any { return []any{plan, task, res.Site} },
		func() (gae.MoveResult, error) {
			var err error
			res, err = s.Steering.Move(ctx, plan, task, site)
			return res, err
		})
}

func (s journaledSteering) SetPriority(ctx context.Context, plan, task string, priority int) error {
	return journalDo(s.g, ctx, s.userOf(ctx), "steering.setpriority",
		func() []any { return []any{plan, task, priority} },
		func() error { return s.Steering.SetPriority(ctx, plan, task, priority) })
}

func (s journaledSteering) SetPreference(ctx context.Context, preference string) (string, error) {
	var applied string
	return journalCall(s.g, ctx, s.userOf(ctx), "steering.setpreference",
		func() []any { return []any{applied} },
		func() (string, error) {
			var err error
			applied, err = s.Steering.SetPreference(ctx, preference)
			return applied, err
		})
}

type journaledState struct {
	gae.State
	g      *GAE
	userOf gae.UserResolver
}

func (s journaledState) SetState(ctx context.Context, key, value string) error {
	return journalDo(s.g, ctx, s.userOf(ctx), "state.set",
		func() []any { return []any{key, value} },
		func() error { return s.State.SetState(ctx, key, value) })
}

func (s journaledState) DeleteState(ctx context.Context, key string) (bool, error) {
	return journalCall(s.g, ctx, s.userOf(ctx), "state.delete",
		func() []any { return []any{key} },
		func() (bool, error) { return s.State.DeleteState(ctx, key) })
}

type journaledReplica struct {
	gae.Replica
	g      *GAE
	userOf gae.UserResolver
}

func (s journaledReplica) RegisterReplica(ctx context.Context, dataset, site string, sizeMB float64) error {
	return journalDo(s.g, ctx, s.userOf(ctx), "replica.register",
		func() []any { return []any{dataset, site, sizeMB} },
		func() error { return s.Replica.RegisterReplica(ctx, dataset, site, sizeMB) })
}

type journaledQuota struct {
	gae.Quota
	g      *GAE
	userOf gae.UserResolver
}

func (s journaledQuota) Grant(ctx context.Context, user string, credits float64) error {
	return journalDo(s.g, ctx, s.userOf(ctx), "quota.grant",
		func() []any { return []any{user, credits} },
		func() error { return s.Quota.Grant(ctx, user, credits) })
}

func (s journaledQuota) ChargeUsage(ctx context.Context, req gae.ChargeRequest) (float64, error) {
	return journalCall(s.g, ctx, s.userOf(ctx), "quota.charge",
		func() []any { return []any{req} },
		func() (float64, error) { return s.Quota.ChargeUsage(ctx, req) })
}
