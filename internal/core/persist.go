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
	"repro/internal/xmlrpc"
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
//   - Between checkpoints, every call of a mutating method row (pkg/gae)
//     on either transport — the local client and the Clarens XML-RPC
//     endpoint both run it through journal, the gae.Journal below — is
//     appended to the journal after it succeeds and before it is
//     acknowledged: an acknowledged call is a recoverable call.
//
// AttachStore runs recovery: restore the snapshot (advancing the
// simulation engine to the capture instant), then re-apply the journal
// tail through the same rows the live calls used — each op at its
// recorded simulated time, as the original user. Leases reconcile in
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
	g.mu.Lock()
	defer g.mu.Unlock()
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
	g.store = s
	return nil
}

// Checkpoint streams the deployment state into the store — live state
// into the snapshot, the ledger entries billed since the last checkpoint
// into the history segment — and truncates the journal it supersedes. It
// holds the deployment's lock, so no call applies while the state is read.
// Without an attached store it does nothing.
func (g *GAE) Checkpoint() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.store == nil {
		return nil
	}
	return g.store.Checkpoint(g.Now(), g.emitState)
}

// CaptureState exports the deployment's full mutable state in the
// canonical (sorted, settled) snapshot form. The recovery test suite
// compares its encoded bytes across a kill and restart.
func (g *GAE) CaptureState() (durable.State, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return durable.CollectState(func(emit durable.Emit) error { return g.emitState(0, emit) })
}

// emitState is the one list of what a deployment's state is made of: it
// exports each durable.State section in field order and hands it to emit
// before exporting the next, so a checkpoint holds one section at a time.
// Checkpoint writes the sections out; CaptureState collects them. Both
// run it under g.mu. The ledger is emitted from entry ledgerFrom on:
// everything for a capture, what the store's history segment lacks for a
// checkpoint.
func (g *GAE) emitState(ledgerFrom int, emit durable.Emit) error {
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
// recorded simulated time, then the op's method row — the same code path
// that served it live — is called on its recorded wire arguments, on a
// client of the unjournaled services acting as the recorded user. Ops that
// carried an idempotency key are re-recorded into the duplicate-suppression
// window (a journaled op is an acknowledged op), with the result the live
// call recorded, so a retry arriving after recovery still dedups.
func (g *GAE) ApplyOp(op durable.Op) error {
	if d := op.Time.Sub(g.Now()); d > 0 {
		g.Grid.Engine.RunFor(d)
	}
	fq := op.Service + "." + op.Method
	var m *gae.Method
	for _, row := range gae.Methods() {
		if row.Mutates && row.Op == fq {
			m = row
		}
	}
	if m == nil {
		return fmt.Errorf("core: journal op %d names unknown method %s", op.Seq, fq)
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(op.Args, &raw); err != nil {
		return fmt.Errorf("core: decoding %s args: %w", fq, err)
	}
	args := make(xmlrpc.Params, len(raw))
	for i, a := range raw {
		args[i] = a
	}
	replay := gae.NewClient(g.services(func(context.Context) string { return op.User }), nil)
	out, err := m.Call(replay, context.Background(), args, journalArg)
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

// journalArg decodes a journal record's argument i into dst.
func journalArg(args xmlrpc.Params, i int, dst any) error {
	if err := json.Unmarshal(args[i].(json.RawMessage), dst); err != nil {
		return fmt.Errorf("core: decoding journal argument %d: %w", i, err)
	}
	return nil
}

// journal is the gae.Journal of a client acting as userOf resolves: every
// call, read or write, holds the deployment's lock from Begin to End and
// leaves one span and one request observation. A mutating call it also
// journals, suppressing duplicates and journaling each call that
// succeeded, which is acknowledged only once its record is fsynced, so
// every acknowledged mutation survives a crash. The record's arguments
// are the call's wire arguments, as its row resolves them from the result.
//
// Begin takes the lock and, for a mutation, looks the request ID up in the
// per-user window; End enqueues the applied call's record, records its
// result in the window and releases the lock, so journal order is apply
// order, then waits for the fsync concurrent calls share. A delivery whose
// ID the window holds — the retry of an ack-lost call, or a duplicate of
// one still waiting on its fsync — gets the recorded result without re-applying,
// once everything enqueued so far is durable. A failed fsync fails every
// caller waiting on it, duplicates included, until the next checkpoint
// persists what was applied. A call whose enqueue failed is not recorded:
// recovery rolls the un-journaled mutation back.
type journal struct {
	g      *GAE
	userOf gae.UserResolver
}

func (j *journal) Begin(ctx context.Context, m *gae.Method) (gae.Pending, error) {
	p := gae.Pending{Mutates: m.Mutates, Host: clarens.CallSpan(ctx)}
	if p.Host == nil {
		p.Span.Open()
	}
	sp := p.Timer()
	sp.Method, sp.User, sp.RequestID, sp.Ring = m.Op, j.userOf(ctx), clarens.RequestID(ctx), j.g.trace
	j.g.mu.Lock()
	sp.Mark("lock")
	if !m.Mutates {
		return p, nil
	}
	p.Journaling = j.g.store != nil
	p.Recording = sp.RequestID != "" && sp.User != ""
	if p.Recording {
		if e, ok := j.g.idem.lookup(sp.User, sp.RequestID); ok {
			if e.Method != sp.Method {
				return p, fmt.Errorf("core: request id %q reused for %s (recorded for %s)", sp.RequestID, sp.Method, e.Method)
			}
			p.Acked, p.Result = true, e.Result
		}
	}
	return p, nil
}

// End closes the call Begin opened: it journals an applied mutation,
// releases the lock, waits for a mutation's commit, and observes the
// call's request, error and latency. It marks the journal stage at the
// unlock and the commit stage after the wait, then closes a local call's
// span; a served call's its host closes. A method's metric handles are
// resolved before the lock is released, since it guards the observer's
// map; they are observed into after.
func (j *journal) End(p gae.Pending, args []any, result []byte, err error) error {
	g := j.g
	sp := p.Timer()
	store := g.store
	var batch uint64 // the journal batch to wait on
	switch {
	case err != nil || !p.Mutates:
	case p.Acked:
		if store != nil {
			batch = store.Enqueued()
		}
	default:
		// One sim-time read serves both the journal record and the window
		// entry: replay re-records at the journaled op.Time, so the live
		// and replayed windows must stamp the identical instant (the
		// recovery byte-identity suite compares the two).
		now := g.Now()
		if store != nil {
			service, method, _ := strings.Cut(sp.Method, ".")
			if sp.Seq, batch, err = store.Enqueue(now, sp.User, service, method, sp.RequestID, args); err != nil {
				g.durabilityLost(err)
			}
		}
		if err == nil && result != nil {
			g.idem.record(sp.User, sp.RequestID, sp.Method, result, sp.Seq, now)
		}
	}
	mo := g.obs.forMethod(sp.Method)
	g.mu.Unlock()
	sp.Mark("journal")
	if err == nil && store != nil && p.Mutates {
		if err = store.Wait(batch); err != nil {
			g.durabilityLost(err)
		}
	}
	end := sp.Mark("commit")
	mo.requests.Inc()
	mo.latency.Observe(end.Seconds())
	sp.Dedup = p.Acked && err == nil
	if err != nil {
		mo.errors.Inc()
		sp.Err = err.Error()
	}
	if p.Host == nil {
		sp.Close()
	}
	return err
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
