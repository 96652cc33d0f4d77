package fairshare

import (
	"math"
	"time"
)

// UsageFlow is one job's usage stream: a chain of constant-rate intervals,
// each of which meets the next. The execution service opens a flow when a
// job's task takes a node, at the rate the node gives the task; sets the
// rate anew at the instants it changes — the end of a load segment, a
// change in the number of tasks running on the node, suspend and resume —
// and closes it with the exact executed total when the job reaches a
// terminal state. Between those calls the owning accounts accrue the flow
// lazily, in closed form, at read points: running CPU reaches the policy
// while the job runs, and nothing is read tick by tick.
type UsageFlow interface {
	// SetRate changes the flow's inflow (CPU-seconds per second of
	// simulated time) from now on; accrual so far is settled first.
	SetRate(rate float64)
	// Close settles the flow and reconciles it against the exact total
	// CPU-seconds the job actually executed: any residual between the
	// analytic integral and the measured total is applied as an
	// instantaneous usage correction, so terminal accounting is the
	// measured CPU to float precision. A closed flow is inert.
	Close(total float64)
}

// FlowSink is the Sink extension through which an execution service
// accounts running CPU, and the only way it does: pools probe the installed
// policy for it with a type assertion and report nothing to one that lacks
// it. RecordUsage stays for usage that arrives as amounts — the quota
// ledger's charges.
type FlowSink interface {
	Sink
	OpenFlow(t *Tenant, site string, rate float64) UsageFlow
}

// flow is the Manager's UsageFlow: it holds the tenant and site accounts
// its rate feeds — the group's it reaches through the tenant's, so a
// tenant moved to another group mid-flow feeds the new one — and tracks
// the undecayed total it has emitted so Close can reconcile against the
// measured CPU-seconds. Every running job holds one, so it is kept to 64
// bytes: the instant the current rate took effect is held in Unix
// nanoseconds, and a closed flow is one whose since is flowClosed.
//
// Nothing is registered for a flow until it first runs at a non-zero rate:
// until then t may be unregistered, and s is nil. The site account is
// taken by pointer, so the flows must not outlive it: Manager.Restore
// replaces every site account and runs only on a manager with no open
// flows.
type flow struct {
	m       *Manager
	t       *Tenant
	s       *account // the site account; nil until a non-zero rate, or with no site
	site    string
	rate    float64
	since   int64   // when the current rate took effect, in Unix nanoseconds
	emitted float64 // undecayed CPU-seconds contributed so far
}

const flowClosed = math.MinInt64

// OpenFlow starts a constant-rate usage flow for tenant t (a handle of this
// manager's, see Tenant) at site, implementing FlowSink. An empty site
// accrues tenant/group usage only. Negative rates are clamped to 0.
func (m *Manager) OpenFlow(t *Tenant, site string, rate float64) UsageFlow {
	if rate < 0 {
		rate = 0
	}
	now := m.nanos()
	f := &flow{m: m, t: t, site: site, since: now}
	m.setFlowRate(f, rate, now)
	return f
}

// SetRate implements UsageFlow.
func (f *flow) SetRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	m := f.m
	if f.since == flowClosed {
		return
	}
	m.setFlowRate(f, rate, m.nanos())
}

// setFlowRate settles the accounts f feeds through now at the old
// rate, then swaps in the new one.
func (m *Manager) setFlowRate(f *flow, rate float64, now int64) {
	f.emitted += f.rate * time.Duration(now-f.since).Seconds()
	delta := rate - f.rate
	f.rate = rate
	f.since = now
	if delta == 0 {
		return
	}
	m.epGen++
	t := m.flowTenant(f)
	m.decay(&t.account, now)
	t.rate += delta
	m.decay(t.g, now)
	t.g.rate += delta
	if f.site != "" {
		if f.s == nil {
			f.s = m.site(t, f.site, now)
		}
		m.decay(f.s, now)
		f.s.rate += delta
	}
}

// flowTenant returns f's tenant, registering it on first use.
func (m *Manager) flowTenant(f *flow) *Tenant {
	if f.t.g == nil {
		m.register(f.t)
	}
	return f.t
}

// Close implements UsageFlow.
func (f *flow) Close(total float64) {
	m := f.m
	if f.since == flowClosed {
		return
	}
	now := m.nanos()
	m.setFlowRate(f, 0, now)
	f.since = flowClosed
	residual := total - f.emitted
	if residual == 0 {
		return
	}
	m.epGen++
	t := m.flowTenant(f)
	m.decay(&t.account, now)
	t.usage += residual
	if t.usage < 0 {
		t.usage = 0
	}
	m.decay(t.g, now)
	t.g.usage += residual
	if t.g.usage < 0 {
		t.g.usage = 0
	}
	s := f.s
	if s == nil && f.site != "" {
		s = t.sites[f.site] // a flow that never ran made no site account; another may have
	}
	if s != nil {
		m.decay(s, now)
		s.usage += residual
		if s.usage < 0 {
			s.usage = 0
		}
	}
}
