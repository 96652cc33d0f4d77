// Package quota implements the Quota and Accounting Service. The paper
// describes it as "currently, just a trivial prototype" that the Steering
// Service's Optimizer contacts "to find the cheapest site for job
// execution"; this implementation keeps that query while adding the
// bookkeeping a production deployment needs: per-site charge rates,
// per-user credit balances, charge records, and quota enforcement.
package quota

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/durable"
)

// ErrInsufficientCredit is returned when a charge would overdraw a user.
var ErrInsufficientCredit = fmt.Errorf("quota: insufficient credit")

// ErrUnknownSite is returned for sites without a configured rate.
var ErrUnknownSite = fmt.Errorf("quota: unknown site")

// ErrUnknownUser is returned for users without an account.
var ErrUnknownUser = fmt.Errorf("quota: unknown user")

// Rate is a site's pricing: credits per CPU-second and per transferred MB.
type Rate struct {
	CPUSecond  float64
	TransferMB float64
}

// price is the single pricing formula shared by quotes (Cost,
// CheapestSite) and billing (Charge), so the two can never diverge.
func (r Rate) price(cpuSeconds, mb float64) float64 {
	return cpuSeconds*r.CPUSecond + mb*r.TransferMB
}

// amount checks a quantity a caller grants, quotes or bills: it must be
// finite and not negative, or no balance could carry it.
func amount(what string, v float64) error {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("quota: invalid %s %v", what, v)
	}
	return nil
}

// usage checks the CPU-seconds and megabytes of a quote or a charge.
func usage(cpuSeconds, mb float64) error {
	if err := amount("CPU-seconds", cpuSeconds); err != nil {
		return err
	}
	return amount("transfer MB", mb)
}

// Charge is one accounting ledger entry; it is the durable history
// segment's record.
type Charge = durable.QuotaCharge

// Service is the quota and accounting service.
type Service struct {
	rates     map[string]Rate
	balances  map[string]float64
	ledger    []Charge
	listeners []func(Charge)
}

// NewService creates an empty service.
func NewService() *Service {
	return &Service{
		rates:    make(map[string]Rate),
		balances: make(map[string]float64),
	}
}

// SetRate configures a site's pricing; a negative or non-finite rate,
// which every quote for the site would carry, panics.
func (s *Service) SetRate(site string, r Rate) {
	if err := errors.Join(amount("rate", r.CPUSecond), amount("rate", r.TransferMB)); err != nil {
		panic(err)
	}
	s.rates[site] = r
}

// Rate returns a site's pricing.
func (s *Service) Rate(site string) (Rate, error) {
	r, ok := s.rates[site]
	if !ok {
		return Rate{}, fmt.Errorf("%w: %s", ErrUnknownSite, site)
	}
	return r, nil
}

// Grant creates the user account if needed and adds credits.
func (s *Service) Grant(user string, credits float64) error {
	if err := amount("grant", credits); err != nil {
		return err
	}
	s.balances[user] += credits
	return nil
}

// Balance returns the user's remaining credits.
func (s *Service) Balance(user string) (float64, error) {
	b, ok := s.balances[user]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownUser, user)
	}
	return b, nil
}

// Cost quotes the credits a job of cpuSeconds plus mb of transfer would
// cost at site, without charging.
func (s *Service) Cost(site string, cpuSeconds, mb float64) (float64, error) {
	if err := usage(cpuSeconds, mb); err != nil {
		return 0, err
	}
	r, err := s.Rate(site)
	if err != nil {
		return 0, err
	}
	return r.price(cpuSeconds, mb), nil
}

// CheapestSite returns the site from candidates with the lowest quoted
// cost for the given usage — the Optimizer's "cheap execution" query.
// Ties break by site name for determinism.
func (s *Service) CheapestSite(candidates []string, cpuSeconds, mb float64) (string, float64, error) {
	if len(candidates) == 0 {
		return "", 0, fmt.Errorf("quota: no candidate sites")
	}
	if err := usage(cpuSeconds, mb); err != nil {
		return "", 0, err
	}
	sorted := append([]string(nil), candidates...)
	sort.Strings(sorted)
	bestSite, bestCost := "", 0.0
	for _, site := range sorted {
		c, err := s.Cost(site, cpuSeconds, mb)
		if err != nil {
			continue // unknown sites are not candidates
		}
		if bestSite == "" || c < bestCost {
			bestSite, bestCost = site, c
		}
	}
	if bestSite == "" {
		return "", 0, fmt.Errorf("%w: none of %v", ErrUnknownSite, candidates)
	}
	return bestSite, bestCost, nil
}

// Subscribe registers a listener invoked synchronously after every
// successful Charge. The fair-share manager subscribes here so charged
// usage folds into effective priorities — the paper's "trivial prototype"
// accounting service becomes a fairness input. A listener may call back
// into the service.
func (s *Service) Subscribe(fn func(Charge)) {
	if fn == nil {
		panic("quota: Subscribe with nil listener")
	}
	s.listeners = append(s.listeners, fn)
}

// Charge debits the user for usage at site and records a ledger entry.
func (s *Service) Charge(user, site string, cpuSeconds, mb float64, at time.Time, note string) (float64, error) {
	if err := usage(cpuSeconds, mb); err != nil {
		return 0, err
	}
	r, ok := s.rates[site]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownSite, site)
	}
	transfer := r.price(0, mb)
	cost := r.price(cpuSeconds, mb)
	bal, ok := s.balances[user]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownUser, user)
	}
	if bal < cost {
		return 0, fmt.Errorf("%w: user %s has %.2f, needs %.2f", ErrInsufficientCredit, user, bal, cost)
	}
	s.balances[user] = bal - cost
	entry := Charge{
		Time: at, User: user, Site: site,
		CPUSeconds: cpuSeconds, MB: mb,
		Credits: cost, TransferCredits: transfer, Note: note,
	}
	s.ledger = append(s.ledger, entry)
	for _, fn := range s.listeners {
		fn(entry)
	}
	return cost, nil
}
