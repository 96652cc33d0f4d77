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
	now := m.clock.Now()
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
			Name: name, Weight: g.weight, Usage: g.usage, Last: g.last,
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
				Name: name, Weight: t.weight, Usage: t.usage, Last: t.last,
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
				Name: s, Weight: a.weight, Usage: a.usage, Last: a.last,
			})
		}
		st.Tenants = append(st.Tenants, ft)
	}
	return st
}

// Restore overwrites the accounting hierarchy with an exported state.
// Configuration (half-life, scale, weights of accounts not in the export)
// is untouched: it comes from the deployment's Config, not the snapshot.
func (m *Manager) Restore(st *durable.FairShareState) {
	if st == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epCacheOK = false
	m.groups = make(map[string]*account, len(st.Groups))
	m.tenants = make(map[string]*tenantAccount, len(st.Tenants))
	m.lastStart = make(map[string]time.Time)
	for _, g := range st.Groups {
		m.groups[g.Name] = &account{weight: g.Weight, usage: g.Usage, last: g.Last}
	}
	for _, t := range st.Tenants {
		ta := &tenantAccount{
			account: account{weight: t.Weight, usage: t.Usage, last: t.Last},
			group:   t.Group,
			sites:   make(map[string]*account, len(t.Sites)),
		}
		for _, s := range t.Sites {
			ta.sites[s.Name] = &account{weight: s.Weight, usage: s.Usage, last: s.Last}
		}
		m.tenants[t.Name] = ta
		if !t.LastStart.IsZero() {
			m.lastStart[t.Name] = t.LastStart
		}
		// Ensure the tenant's group exists even if it carried no usage.
		if _, ok := m.groups[ta.group]; !ok {
			m.groups[ta.group] = &account{weight: defaultWeight}
		}
	}
}
