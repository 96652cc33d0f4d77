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
	OpenFlow(tenant, site string, rate float64) UsageFlow
}

// flow is the Manager's UsageFlow: it names the tenant and site accounts
// its rate feeds and tracks the undecayed total it has emitted so Close can
// reconcile against the measured CPU-seconds. Every running job holds one,
// so it is kept to 64 bytes: the instant the current rate took effect is
// held in Unix nanoseconds, and a closed flow is one whose since is
// flowClosed.
type flow struct {
	m       *Manager
	tenant  string
	site    string
	rate    float64
	since   int64   // when the current rate took effect, in Unix nanoseconds
	emitted float64 // undecayed CPU-seconds contributed so far
}

const flowClosed = math.MinInt64

// OpenFlow starts a constant-rate usage flow for tenant at site,
// implementing FlowSink. An empty tenant accounts to Anonymous; an empty
// site accrues tenant/group usage only. Negative rates are clamped to 0.
func (m *Manager) OpenFlow(tenant, site string, rate float64) UsageFlow {
	if rate < 0 {
		rate = 0
	}
	tenant = tenantName(tenant)
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock.Now()
	f := &flow{m: m, tenant: tenant, site: site, since: now.UnixNano()}
	m.setFlowRateLocked(f, rate, now)
	return f
}

// SetRate implements UsageFlow.
func (f *flow) SetRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	m := f.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.since == flowClosed {
		return
	}
	m.setFlowRateLocked(f, rate, m.clock.Now())
}

// setFlowRateLocked settles the accounts f feeds through now at the old
// rate, then swaps in the new one. It is a Manager method — the mutex
// it runs under is m.mu, not anything of the flow's — so the *Locked
// suffix names whose lock is held.
func (m *Manager) setFlowRateLocked(f *flow, rate float64, now time.Time) {
	at := now.UnixNano()
	f.emitted += f.rate * time.Duration(at-f.since).Seconds()
	delta := rate - f.rate
	f.rate = rate
	f.since = at
	if delta == 0 {
		return
	}
	m.epCacheOK = false
	t := m.tenantLocked(f.tenant)
	m.decayLocked(&t.account, now)
	t.rate += delta
	g := m.groupLocked(t.group)
	m.decayLocked(g, now)
	g.rate += delta
	if f.site != "" {
		s, ok := t.sites[f.site]
		if !ok {
			s = &account{last: now}
			t.sites[f.site] = s
		}
		m.decayLocked(s, now)
		s.rate += delta
	}
}

// Close implements UsageFlow.
func (f *flow) Close(total float64) {
	m := f.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.since == flowClosed {
		return
	}
	now := m.clock.Now()
	m.setFlowRateLocked(f, 0, now)
	f.since = flowClosed
	residual := total - f.emitted
	if residual == 0 {
		return
	}
	m.epCacheOK = false
	t := m.tenantLocked(f.tenant)
	m.decayLocked(&t.account, now)
	t.usage += residual
	if t.usage < 0 {
		t.usage = 0
	}
	g := m.groupLocked(t.group)
	m.decayLocked(g, now)
	g.usage += residual
	if g.usage < 0 {
		g.usage = 0
	}
	if f.site != "" {
		if s, ok := t.sites[f.site]; ok {
			m.decayLocked(s, now)
			s.usage += residual
			if s.usage < 0 {
				s.usage = 0
			}
		}
	}
}
