package fairshare

import (
	"sort"
	"time"

	"repro/internal/durable"
)

// Export serializes the accounting hierarchy for the durable snapshot
// codec. Every account is first settled (decayed to the clock's current
// instant), so two exports of the same logical state at the same clock
// reading are identical — the canonical form the recovery suite compares.
func (m *Manager) Export() *durable.FairShareState {
	m.mu.Lock()
	defer m.mu.Unlock()
	clk := m.clock.Now()
	now, loc := clk.UnixNano(), clk.Location()
	st := &durable.FairShareState{}

	groups := make([]string, 0, len(m.groups))
	for name := range m.groups {
		groups = append(groups, name)
	}
	sort.Strings(groups)
	for _, name := range groups {
		g := m.groups[name]
		m.decayLocked(g, now)
		st.Groups = append(st.Groups, durable.FairShareAccount{
			Name: name, Weight: g.weight, Usage: g.usage, Last: timeOf(g.last, loc),
		})
	}

	tenants := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		t := m.tenants[name]
		m.decayLocked(&t.account, now)
		ft := durable.FairShareTenant{
			FairShareAccount: durable.FairShareAccount{
				Name: name, Weight: t.weight, Usage: t.usage, Last: timeOf(t.last, loc),
			},
			Group:     t.group,
			LastStart: m.lastStart[name],
		}
		sites := make([]string, 0, len(t.sites))
		for s := range t.sites {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		for _, s := range sites {
			a := t.sites[s]
			m.decayLocked(a, now)
			ft.Sites = append(ft.Sites, durable.FairShareAccount{
				Name: s, Weight: a.weight, Usage: a.usage, Last: timeOf(a.last, loc),
			})
		}
		st.Tenants = append(st.Tenants, ft)
	}
	return st
}

// Restore overwrites the accounting hierarchy with an exported state.
// Configuration (half-life, scale, weights of accounts not in the export)
// is untouched: it comes from the deployment's Config, not the snapshot.
// It replaces every account, so it runs only on a manager with no open
// usage flows — a flow holds the accounts it feeds — as on recovery, which
// builds a fresh deployment and restores it before any pool reopens its
// running jobs' flows.
func (m *Manager) Restore(st *durable.FairShareState) {
	if st == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epGen++
	m.groups = make(map[string]*account, len(st.Groups))
	m.tenants = make(map[string]*tenantAccount, len(st.Tenants))
	m.lastStart = make(map[string]time.Time)
	for _, g := range st.Groups {
		a := restoredAccount(g)
		m.groups[g.Name] = &a
	}
	for _, t := range st.Tenants {
		ta := &tenantAccount{
			account: restoredAccount(t.FairShareAccount),
			name:    t.Name,
			group:   t.Group,
			g:       m.groupLocked(t.Group), // the tenant's group exists even if it carried no usage
			sites:   make(map[string]*account, len(t.Sites)),
		}
		for _, s := range t.Sites {
			a := restoredAccount(s)
			ta.sites[s.Name] = &a
		}
		m.tenants[t.Name] = ta
		if !t.LastStart.IsZero() {
			m.lastStart[t.Name] = t.LastStart
		}
	}
}

// restoredAccount rebuilds an account from its exported form.
func restoredAccount(a durable.FairShareAccount) account {
	last := int64(unsettled)
	if !a.Last.IsZero() {
		last = a.Last.UnixNano()
	}
	return account{weight: a.Weight, usage: a.Usage, last: last}
}

// timeOf returns the settle instant last stands for in loc, the clock's
// location; the zero time for an account never settled.
func timeOf(last int64, loc *time.Location) time.Time {
	if last == unsettled {
		return time.Time{}
	}
	return time.Unix(0, last).In(loc)
}
