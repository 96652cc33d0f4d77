// Package fairshare implements time-aware fair-share arbitration for the
// GAE reproduction: hierarchical tenant/group usage accounting with
// exponentially-decayed CPU-second usage, Condor-style effective
// priorities (weight ÷ decayed usage) with a starvation guard, and small
// pluggable interfaces through which both layers of the stack consume the
// shared fairness state — the Condor-like execution service orders idle
// jobs by effective priority, and the Sphinx-like scheduler breaks
// site-selection ties by fair-share standing.
//
// The paper's stack schedules purely on static job priority and per-site
// estimates; nothing arbitrates between competing users, so one bursty
// tenant can starve the grid. Production schedulers (Condor's user
// priorities, SLURM's multifactor fair-share, KAI's time-aware fairness)
// all solve this the same way: accumulate each principal's recent
// resource consumption with an exponential decay, and hand the next free
// slot to whoever is furthest below their entitled share. This package
// is that accounting core. It depends only on vtime, so experiments
// drive it with a simulated clock and replay multi-hundred-second
// fairness scenarios in milliseconds.
package fairshare

import (
	"math"
	"sync"
	"time"

	"repro/internal/vtime"
)

// Anonymous is the tenant that jobs with no owner are accounted to.
// Mapping ownerless work onto one real tenant (instead of ignoring it)
// means it accrues usage and allocation history like anyone else —
// submitting without an owner is not a way around fair-share.
const Anonymous = "anonymous"

// Defaults used when Config fields are zero.
const (
	// DefaultHalfLife is the usage decay half-life: a tenant's recorded
	// CPU-seconds count half after this much (virtual) time.
	DefaultHalfLife = 10 * time.Minute
	// DefaultStarvationWindow is how long a job may sit idle before the
	// starvation guard promotes it ahead of effective-priority order.
	DefaultStarvationWindow = 5 * time.Minute
)

// The priority function's fixed shape.
const (
	// usageScale is the decayed usage (CPU-seconds) at which a tenant's
	// effective priority halves relative to an idle tenant of equal
	// weight.
	usageScale = 300
	// defaultGroup receives the tenants first seen via RecordUsage or
	// ordering rather than SetTenant; they, and groups never set with
	// SetGroup, weigh defaultWeight.
	defaultGroup  = "default"
	defaultWeight = 1.0
)

// Config parameterizes a Manager. What it does not set is constant:
// usageScale (300 CPU-seconds), defaultGroup ("default") and
// defaultWeight (1).
type Config struct {
	// Clock drives usage decay and the starvation guard. Required:
	// deployments pass the grid engine's simulated clock so fairness
	// evolves on virtual time.
	Clock vtime.Clock
	// HalfLife is the usage decay half-life. Zero selects
	// DefaultHalfLife; a negative value disables decay entirely (usage
	// accumulates forever — the "infinite memory" ablation).
	HalfLife time.Duration
	// StarvationWindow bounds how long any job waits regardless of its
	// owner's standing. Zero selects DefaultStarvationWindow; a negative
	// value disables the guard.
	StarvationWindow time.Duration
}

// account is one node of the accounting hierarchy: a group, a tenant, or
// a tenant's per-site usage bucket. Usage decays lazily: it is brought
// forward to the clock's current time whenever it is read or added to.
// rate is the aggregate inflow (CPU-seconds per second) of the open
// usage flows feeding this account; the lazy settle folds it in with the
// closed-form integral, so a million running jobs cost nothing between
// read points.
type account struct {
	weight float64
	usage  float64
	rate   float64
	last   time.Time
}

// tenantAccount adds group membership and a per-site usage breakdown.
type tenantAccount struct {
	account
	group string
	sites map[string]*account
}

// Manager is the central fair-share state: a two-level hierarchy of
// groups and tenants, each carrying exponentially-decayed CPU-second
// usage. All methods are safe for concurrent use.
type Manager struct {
	mu        sync.Mutex
	clock     vtime.Clock
	cfg       Config
	groups    map[string]*account
	tenants   map[string]*tenantAccount
	lastStart map[string]time.Time // most recent machine allocation per tenant

	// Effective priorities memoized for one clock instant: negotiation
	// sorts call EffectivePriority O(n log n) times with the clock frozen,
	// so each tenant's hierarchy walk happens once per tick instead of
	// once per comparison. Any usage or weight mutation clears the memo.
	// The map itself is recycled across invalidations (clear, not
	// reallocate): negotiation passes invalidate it on every completion,
	// and at million-job scale the per-pass make() showed up in profiles.
	epCache   map[string]float64
	epCacheAt time.Time
	epCacheOK bool
}

// NewManager creates a Manager. It panics if cfg.Clock is nil, since a
// fair-share state without a time source cannot decay.
func NewManager(cfg Config) *Manager {
	if cfg.Clock == nil {
		panic("fairshare: Config.Clock is required")
	}
	if cfg.HalfLife == 0 {
		cfg.HalfLife = DefaultHalfLife
	}
	if cfg.StarvationWindow == 0 {
		cfg.StarvationWindow = DefaultStarvationWindow
	}
	return &Manager{
		clock:     cfg.Clock,
		cfg:       cfg,
		groups:    make(map[string]*account),
		tenants:   make(map[string]*tenantAccount),
		lastStart: make(map[string]time.Time),
	}
}

// SetGroup declares (or reweights) a group. Weight must be positive.
func (m *Manager) SetGroup(name string, weight float64) {
	if weight <= 0 {
		panic("fairshare: non-positive group weight")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.groupLocked(name)
	g.weight = weight
	m.epCacheOK = false
}

// SetTenant declares (or moves/reweights) a tenant within a group. An
// empty group selects the default group; moving a tenant carries its
// accumulated usage from the old group to the new one, so neither group
// arbitrates on consumption it didn't (or did) generate. Weight must be
// positive.
func (m *Manager) SetTenant(name, group string, weight float64) {
	if weight <= 0 {
		panic("fairshare: non-positive tenant weight")
	}
	if group == "" {
		group = defaultGroup
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tenantLocked(name)
	t.weight = weight
	if t.group != group {
		now := m.clock.Now()
		m.decayLocked(&t.account, now)
		old := m.groupLocked(t.group)
		m.decayLocked(old, now)
		old.usage -= t.usage
		if old.usage < 0 {
			old.usage = 0
		}
		old.rate -= t.rate
		next := m.groupLocked(group)
		m.decayLocked(next, now)
		next.usage += t.usage
		next.rate += t.rate
		t.group = group
	}
	m.groupLocked(group)
	m.epCacheOK = false
}

// RecordUsage folds cpuSeconds of consumption by tenant at site into the
// decayed accounting state — the Sink implementation that Condor
// completion events and quota-ledger charges feed. Non-positive usage is
// ignored; an empty tenant accounts to Anonymous, and an empty site
// records tenant/group usage only.
func (m *Manager) RecordUsage(tenant, site string, cpuSeconds float64) {
	if cpuSeconds <= 0 {
		return
	}
	tenant = tenantName(tenant)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epCacheOK = false
	now := m.clock.Now()
	t := m.tenantLocked(tenant)
	m.decayLocked(&t.account, now)
	t.usage += cpuSeconds
	g := m.groupLocked(t.group)
	m.decayLocked(g, now)
	g.usage += cpuSeconds
	if site != "" {
		s, ok := t.sites[site]
		if !ok {
			s = &account{last: now}
			t.sites[site] = s
		}
		m.decayLocked(s, now)
		s.usage += cpuSeconds
	}
}

// Usage returns the tenant's decayed CPU-second usage (0 for unknown
// tenants).
func (m *Manager) Usage(tenant string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[tenantName(tenant)]
	if !ok {
		return 0
	}
	m.decayLocked(&t.account, m.clock.Now())
	return t.usage
}

// GroupUsage returns the group's decayed CPU-second usage, aggregated
// over its tenants (0 for unknown groups).
func (m *Manager) GroupUsage(group string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.groups[group]
	if !ok {
		return 0
	}
	m.decayLocked(g, m.clock.Now())
	return g.usage
}

// SiteUsage returns the tenant's decayed usage accrued at one site — the
// SiteStanding implementation the scheduler uses as its site-selection
// tie-break.
func (m *Manager) SiteUsage(tenant, site string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[tenantName(tenant)]
	if !ok {
		return 0
	}
	s, ok := t.sites[site]
	if !ok {
		return 0
	}
	m.decayLocked(s, m.clock.Now())
	return s.usage
}

// EffectivePriority returns the tenant's Condor-style effective priority:
// the product of the tenant's and its group's weight-over-decayed-usage
// factors. An idle tenant scores groupWeight×tenantWeight; every
// usageScale CPU-seconds of decayed usage halves the corresponding
// factor. Higher is better. Unknown tenants score as fresh default-weight
// tenants.
func (m *Manager) EffectivePriority(tenant string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.effectiveLocked(tenant)
}

func (m *Manager) effectiveLocked(tenant string) float64 {
	return m.effectiveAtLocked(tenant, m.clock.Now())
}

func (m *Manager) effectiveAtLocked(tenant string, now time.Time) float64 {
	if !m.epCacheOK || !m.epCacheAt.Equal(now) {
		if m.epCache == nil {
			m.epCache = make(map[string]float64)
		} else {
			clear(m.epCache)
		}
		m.epCacheAt = now
		m.epCacheOK = true
	}
	if ep, ok := m.epCache[tenant]; ok {
		return ep
	}
	// Read-only: unknown tenants score as fresh default-weight members of
	// the default group without being registered (registration happens on
	// RecordUsage/SetTenant, so a typo'd query can't mint ghost tenants).
	tw, tu := defaultWeight, 0.0
	gw, gu := defaultWeight, 0.0
	group := defaultGroup
	if t, ok := m.tenants[tenantName(tenant)]; ok {
		m.decayLocked(&t.account, now)
		tw, tu, group = t.weight, t.usage, t.group
	}
	if g, ok := m.groups[group]; ok {
		m.decayLocked(g, now)
		gw, gu = g.weight, g.usage
	}
	const u = usageScale
	ep := tw * (u / (u + tu)) * gw * (u / (u + gu))
	m.epCache[tenant] = ep
	return ep
}

// decayLocked brings an account's usage forward to now: the recorded
// usage decays exponentially, and any constant-rate flow inflow over the
// elapsed window accrues in closed form. With u' = rate − λ·u and
// λ = ln2/HalfLife, the interval solution is
// u(now) = u·2^(−dt/HL) + rate·(HL/ln2)·(1 − 2^(−dt/HL)); with decay
// disabled it degenerates to u += rate·dt. When no flows feed the
// account (rate == 0) this is exactly the pre-flow settle, bit for bit.
func (m *Manager) decayLocked(a *account, now time.Time) {
	if a.last.IsZero() {
		a.last = now
		return
	}
	dt := now.Sub(a.last)
	if dt <= 0 {
		return
	}
	a.last = now
	if m.cfg.HalfLife < 0 {
		if a.rate != 0 {
			a.usage += a.rate * dt.Seconds()
		}
		return // decay disabled
	}
	if a.usage == 0 && a.rate == 0 {
		return // nothing to decay, nothing flowing in
	}
	d := math.Exp2(-float64(dt) / float64(m.cfg.HalfLife))
	u := a.usage * d
	if a.rate != 0 {
		tau := m.cfg.HalfLife.Seconds() / math.Ln2
		u += a.rate * tau * (1 - d)
	}
	a.usage = u
}

// groupLocked returns the named group, creating it with the default
// weight on first reference.
func (m *Manager) groupLocked(name string) *account {
	g, ok := m.groups[name]
	if !ok {
		g = &account{weight: defaultWeight}
		m.groups[name] = g
	}
	return g
}

// tenantName maps the empty owner onto the Anonymous tenant.
func tenantName(s string) string {
	if s == "" {
		return Anonymous
	}
	return s
}

// tenantLocked returns the named tenant, auto-registering unknown ones in
// the default group with the default weight.
func (m *Manager) tenantLocked(name string) *tenantAccount {
	name = tenantName(name)
	t, ok := m.tenants[name]
	if !ok {
		t = &tenantAccount{
			account: account{weight: defaultWeight},
			group:   defaultGroup,
			sites:   make(map[string]*account),
		}
		m.tenants[name] = t
		m.groupLocked(t.group)
	}
	return t
}
