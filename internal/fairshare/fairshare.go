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
//
// A caller that accounts to the same tenant over and over — the execution
// service, once per job start, usage flow and negotiation pass — resolves
// the tenant's name once (Manager.Tenant) and holds the handle, the
// tenant's account itself: OpenFlow, ObserveStart and a JobRef carrying it
// look nothing up by name. The tenant's last start lives on that account,
// beside its usage, and is exported with it.
package fairshare

import (
	"math"
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
// read points. last is the instant of the last settle in Unix
// nanoseconds, unsettled before the first (Export and Restore convert).
type account struct {
	weight float64
	usage  float64
	rate   float64
	last   int64
}

// unsettled is the last of an account never settled: the zero Last of the
// snapshot.
const unsettled = math.MinInt64

// Tenant is one tenant's account and the handle callers hold on it
// (Manager.Tenant): it adds group membership, a per-site usage breakdown,
// the instant the tenant was last allocated a machine (ObserveStart), and
// the tenant's effective priority memoized for one memo generation (see
// Manager.epGen). g is the account of the group named by group: what a
// flow feeds reaches the group through it, so moving the tenant moves
// where the flow's usage lands.
//
// A Tenant with a nil g is not registered: a handle resolved, or a flow
// opened, for a name nothing has accounted to yet. It scores as a fresh
// default-weight tenant, exports nothing, and is registered in place on
// its first usage or start. One name has one Tenant for the manager's
// lifetime — Restore rewrites the accounts in place — so a handle never
// goes stale. Handles are the manager's: one from another manager must not
// be passed in.
type Tenant struct {
	account
	name      string
	group     string
	g         *account
	sites     map[string]*account
	lastStart time.Time // the tenant's most recent machine allocation
	ep        float64
	epGen     uint64
}

// Manager is the central fair-share state: a two-level hierarchy of
// groups and tenants, each carrying exponentially-decayed CPU-second
// usage, and each tenant the instant it was last allocated a machine.
// Callers on a hot path resolve a tenant's name once (Tenant) and hand the
// handle to OpenFlow, ObserveStart and the refs of AppendSortKeys, which
// then look nothing up by name.
type Manager struct {
	clock  vtime.Clock
	cfg    Config
	groups map[string]*account
	// tenants holds the registered tenants, which Export writes;
	// unregistered holds the handles resolved for names not registered yet.
	tenants      map[string]*Tenant
	unregistered map[string]*Tenant

	// Effective priorities are memoized on the tenant accounts, each
	// stamped with the generation it was computed in: negotiation prices
	// every owner of a pass at one frozen instant, so each tenant's
	// hierarchy walk happens once per instant instead of once per ref.
	// epGen moves on with any usage or weight mutation and whenever a read
	// asks at another instant than epAt, the one the generation holds for;
	// a tenant's memo is good while its epGen equals the Manager's.
	epGen uint64
	epAt  int64

	// starved is AppendSortKeys' scratch list of the refs found starved,
	// kept across calls so a pass with starved owners allocates nothing.
	starved []int
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
		clock:        cfg.Clock,
		cfg:          cfg,
		groups:       make(map[string]*account),
		tenants:      make(map[string]*Tenant),
		unregistered: make(map[string]*Tenant),
		epGen:        1, // a new tenant's zero epGen holds no memo
	}
}

// SetGroup declares (or reweights) a group. Weight must be positive.
func (m *Manager) SetGroup(name string, weight float64) {
	if weight <= 0 {
		panic("fairshare: non-positive group weight")
	}
	g := m.group(name)
	g.weight = weight
	m.epGen++
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
	t := m.tenant(name)
	t.weight = weight
	if t.group != group {
		now := m.nanos()
		m.decay(&t.account, now)
		old := t.g
		m.decay(old, now)
		old.usage -= t.usage
		if old.usage < 0 {
			old.usage = 0
		}
		old.rate -= t.rate
		next := m.group(group)
		m.decay(next, now)
		next.usage += t.usage
		next.rate += t.rate
		t.group, t.g = group, next
	}
	m.epGen++
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
	m.epGen++
	now := m.nanos()
	t := m.tenant(tenant)
	m.decay(&t.account, now)
	t.usage += cpuSeconds
	m.decay(t.g, now)
	t.g.usage += cpuSeconds
	if site != "" {
		s := m.site(t, site, now)
		m.decay(s, now)
		s.usage += cpuSeconds
	}
}

// Usage returns the tenant's decayed CPU-second usage (0 for unknown
// tenants).
func (m *Manager) Usage(tenant string) float64 {
	t, ok := m.tenants[tenantName(tenant)]
	if !ok {
		return 0
	}
	m.decay(&t.account, m.nanos())
	return t.usage
}

// GroupUsage returns the group's decayed CPU-second usage, aggregated
// over its tenants (0 for unknown groups).
func (m *Manager) GroupUsage(group string) float64 {
	g, ok := m.groups[group]
	if !ok {
		return 0
	}
	m.decay(g, m.nanos())
	return g.usage
}

// SiteUsage returns the tenant's decayed usage accrued at one site — what
// the scheduler breaks site-selection ties by.
func (m *Manager) SiteUsage(tenant, site string) float64 {
	t, ok := m.tenants[tenantName(tenant)]
	if !ok {
		return 0
	}
	s, ok := t.sites[site]
	if !ok {
		return 0
	}
	m.decay(s, m.nanos())
	return s.usage
}

// EffectivePriority returns the tenant's Condor-style effective priority:
// the product of the tenant's and its group's weight-over-decayed-usage
// factors. An idle tenant scores groupWeight×tenantWeight; every
// usageScale CPU-seconds of decayed usage halves the corresponding
// factor. Higher is better. Unknown tenants score as fresh default-weight
// tenants.
func (m *Manager) EffectivePriority(tenant string) float64 {
	return m.effectiveAt(m.tenants[tenantName(tenant)], m.nanos())
}

// effectiveAt returns t's effective priority at now, from t's memo
// when the memo generation still holds. A nil t, or one not registered, is
// an unknown tenant: it scores as a fresh default-weight member of the
// default group without being registered (registration happens on
// RecordUsage, SetTenant, a start or a flow's first running instant, so a
// typo'd query can't mint ghost tenants); a nil t has no memo.
func (m *Manager) effectiveAt(t *Tenant, now int64) float64 {
	if now != m.epAt {
		m.epAt = now
		m.epGen++
	}
	if t != nil && t.epGen == m.epGen {
		return t.ep
	}
	tw, tu := defaultWeight, 0.0
	var g *account
	if t != nil && t.g != nil {
		m.decay(&t.account, now)
		tw, tu, g = t.weight, t.usage, t.g
	} else {
		g = m.groups[defaultGroup]
	}
	gw, gu := defaultWeight, 0.0
	if g != nil {
		m.decay(g, now)
		gw, gu = g.weight, g.usage
	}
	const u = usageScale
	ep := tw * (u / (u + tu)) * gw * (u / (u + gu))
	if t != nil {
		t.ep, t.epGen = ep, m.epGen
	}
	return ep
}

// decay brings an account's usage forward to now: the recorded
// usage decays exponentially, and any constant-rate flow inflow over the
// elapsed window accrues in closed form. With u' = rate − λ·u and
// λ = ln2/HalfLife, the interval solution is
// u(now) = u·2^(−dt/HL) + rate·(HL/ln2)·(1 − 2^(−dt/HL)); with decay
// disabled it degenerates to u += rate·dt. When no flows feed the
// account (rate == 0) this is exactly the pre-flow settle, bit for bit.
func (m *Manager) decay(a *account, now int64) {
	if a.last == unsettled {
		a.last = now
		return
	}
	dt := time.Duration(now - a.last)
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

// nanos reads the clock in Unix nanoseconds, the unit accounts settle in.
func (m *Manager) nanos() int64 { return m.clock.Now().UnixNano() }

// group returns the named group, creating it with the default
// weight on first reference.
func (m *Manager) group(name string) *account {
	g, ok := m.groups[name]
	if !ok {
		g = &account{weight: defaultWeight, last: unsettled}
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

// Tenant returns the handle on the named tenant's account, for callers
// that account to one tenant over and over: OpenFlow, ObserveStart and a
// JobRef's Tenant read through it instead of looking the name up. An empty
// name is Anonymous. Resolving registers nothing: the handle of a name
// nothing has accounted to is an unregistered Tenant, which the first
// usage or start registers in place.
func (m *Manager) Tenant(name string) *Tenant {
	name = tenantName(name)
	if t, ok := m.tenants[name]; ok {
		return t
	}
	t, ok := m.unregistered[name]
	if !ok {
		t = &Tenant{name: name}
		m.unregistered[name] = t
	}
	return t
}

// tenant returns the named tenant, auto-registering unknown ones in
// the default group with the default weight.
func (m *Manager) tenant(name string) *Tenant {
	name = tenantName(name)
	t, ok := m.tenants[name]
	if !ok {
		if t, ok = m.unregistered[name]; !ok {
			t = &Tenant{name: name}
		}
		m.register(t)
	}
	return t
}

// register enters t, named but otherwise blank, as a fresh tenant of
// the default group with the default weight.
func (m *Manager) register(t *Tenant) {
	t.account = account{weight: defaultWeight, last: unsettled}
	t.group, t.g = defaultGroup, m.group(defaultGroup)
	t.sites = make(map[string]*account)
	delete(m.unregistered, t.name)
	m.tenants[t.name] = t
}

// site returns t's account at site, creating it settled at now on
// first reference.
func (m *Manager) site(t *Tenant, site string, now int64) *account {
	s, ok := t.sites[site]
	if !ok {
		s = &account{last: now}
		t.sites[site] = s
	}
	return s
}
