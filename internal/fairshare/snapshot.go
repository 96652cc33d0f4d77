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
		m.decay(g, now)
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
		m.decay(&t.account, now)
		ft := durable.FairShareTenant{
			FairShareAccount: durable.FairShareAccount{
				Name: name, Weight: t.weight, Usage: t.usage, Last: timeOf(t.last, loc),
			},
			Group:     t.group,
			LastStart: t.lastStart,
		}
		sites := make([]string, 0, len(t.sites))
		for s := range t.sites {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		for _, s := range sites {
			a := t.sites[s]
			m.decay(a, now)
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
// Tenants are rewritten in place, so a handle taken before the restore
// stands for the restored account — or, for a name the export lacks, for
// an unregistered one. Group and site accounts are replaced, and a flow
// holds the site account it feeds, so Restore runs only on a manager with
// no open usage flows, as on recovery, which builds a fresh deployment and
// restores it before any pool reopens its running jobs' flows.
func (m *Manager) Restore(st *durable.FairShareState) {
	if st == nil {
		return
	}
	m.epGen++
	m.groups = make(map[string]*account, len(st.Groups))
	for name, t := range m.tenants {
		*t = Tenant{name: name}
		m.unregistered[name] = t
	}
	m.tenants = make(map[string]*Tenant, len(st.Tenants))
	for _, g := range st.Groups {
		a := restoredAccount(g)
		m.groups[g.Name] = &a
	}
	for _, ts := range st.Tenants {
		t, ok := m.unregistered[ts.Name]
		if ok {
			delete(m.unregistered, ts.Name)
		} else {
			t = &Tenant{name: ts.Name}
		}
		t.account = restoredAccount(ts.FairShareAccount)
		t.group = ts.Group
		t.g = m.group(ts.Group) // the tenant's group exists even if it carried no usage
		t.sites = make(map[string]*account, len(ts.Sites))
		t.lastStart = ts.LastStart
		for _, s := range ts.Sites {
			a := restoredAccount(s)
			t.sites[s.Name] = &a
		}
		m.tenants[ts.Name] = t
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
