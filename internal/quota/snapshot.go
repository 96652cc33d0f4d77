package quota

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/durable"
)

// Export serializes user balances (sorted by user) and the charge ledger
// from entry ledgerFrom on (in charge order) for the durable snapshot
// codec: a checkpoint asks for the entries its history segment does not
// hold yet, so what it copies follows what was billed since the last one.
// Site rates are deployment configuration and are not exported.
func (s *Service) Export(ledgerFrom int) (durable.QuotaState, error) {
	if ledgerFrom < 0 || ledgerFrom > len(s.ledger) {
		return durable.QuotaState{}, fmt.Errorf("quota: export from ledger entry %d of %d", ledgerFrom, len(s.ledger))
	}
	st := durable.QuotaState{
		Balances: make([]durable.QuotaBalance, 0, len(s.balances)),
		Ledger:   slices.Clone(s.ledger[ledgerFrom:]),
	}
	users := make([]string, 0, len(s.balances))
	for u := range s.balances {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		st.Balances = append(st.Balances, durable.QuotaBalance{User: u, Credits: s.balances[u]})
	}
	return st, nil
}

// Restore overwrites balances and ledger from an exported state without
// invoking charge listeners: restored history was already propagated (the
// fair-share bridge's view comes back through its own snapshot).
func (s *Service) Restore(st durable.QuotaState) {
	s.balances = make(map[string]float64, len(st.Balances))
	for _, b := range st.Balances {
		s.balances[b.User] = b.Credits
	}
	s.ledger = slices.Clone(st.Ledger)
}
