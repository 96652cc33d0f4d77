package fairshare

import (
	"cmp"
	"slices"
	"strings"
	"time"
)

// JobRef is the ordering view of one queued job: everything a fair-share
// policy may consider when deciding which idle job the next free machine
// goes to. The execution service builds these from its queue; the policy
// never sees execution-service internals. A ref with a Tenant handle is
// priced through it; one without resolves Owner by name.
type JobRef struct {
	Owner          string    // submitting tenant
	Tenant         *Tenant   // Owner's handle (Ranker.Tenant), or nil
	StaticPriority int       // the job ad's static priority (larger first)
	Submitted      time.Time // when the job entered the queue
	Seq            int       // submission sequence, the final FIFO tie-break
}

// SortKey is one job's precomputed standing at one instant; together with
// the JobRef's static fields it fully determines negotiation order.
type SortKey struct {
	Starved   bool
	Effective float64
}

// Ranker is a fair-share policy: AppendSortKeys prices the refs considered
// together in one negotiation pass — one key per ref, all at the single
// instant the caller captured, so the order stays a strict weak ordering
// even on a clock that advances mid-pass — and LessKeys orders any two of
// them by those keys without calling back into the policy. The keys are
// appended to the caller's buffer, which a negotiator reuses pass after
// pass. Tenant resolves the handle a negotiator keeps per owner and puts
// in its refs, and hands to FlowSink and StartObserver.
type Ranker interface {
	Tenant(owner string) *Tenant
	AppendSortKeys(dst []SortKey, now time.Time, refs []JobRef) []SortKey
}

// SortKeysAt is AppendSortKeys into a fresh slice.
func (m *Manager) SortKeysAt(now time.Time, refs []JobRef) []SortKey {
	return m.AppendSortKeys(nil, now, refs)
}

// AppendSortKeys computes each ref's standing at the given instant in a
// single pass and appends the keys to dst. Among a starved tenant's
// refs, only the oldest is marked Starved: promoting one job per tenant per
// pass bounds the guard to its purpose — guaranteeing progress — instead of
// handing a starved tenant's whole backlog every machine that frees in the
// same cycle.
func (m *Manager) AppendSortKeys(dst []SortKey, now time.Time, refs []JobRef) []SortKey {
	n := len(dst)
	dst = slices.Grow(dst, len(refs))[:n+len(refs)]
	keys := dst[n:]
	clear(keys)
	at := now.UnixNano()
	starved := m.starved[:0]
	for i, r := range refs {
		t := r.Tenant
		if t == nil {
			t = m.tenants[tenantName(r.Owner)]
		}
		keys[i].Effective = m.effectiveAt(t, at)
		if m.cfg.StarvationWindow > 0 && m.isStarved(t, r, now) {
			starved = append(starved, i)
		}
	}
	if len(starved) > 1 {
		// Each starved owner's refs in a run, its oldest first.
		slices.SortFunc(starved, func(i, j int) int {
			a, b := refs[i], refs[j]
			if c := strings.Compare(refName(a), refName(b)); c != 0 {
				return c
			}
			if olderRef(a, b) {
				return -1
			}
			if olderRef(b, a) {
				return 1
			}
			return cmp.Compare(i, j)
		})
	}
	for k, i := range starved {
		if k == 0 || refName(refs[i]) != refName(refs[starved[k-1]]) {
			keys[i].Starved = true
		}
	}
	m.starved = starved
	return dst
}

// refName is the name of r's tenant.
func refName(r JobRef) string {
	if r.Tenant != nil {
		return r.Tenant.name
	}
	return tenantName(r.Owner)
}

// olderRef reports whether a entered the queue before b.
func olderRef(a, b JobRef) bool {
	if !a.Submitted.Equal(b.Submitted) {
		return a.Submitted.Before(b.Submitted)
	}
	return a.Seq < b.Seq
}

// LessKeys reports whether a should be offered a machine before b, given
// the keys one SortKeysAt call produced for both — the manager's
// time-aware policy:
//
//  1. Starvation guard: each starved tenant's oldest queued job precedes
//     any non-starved job; among those, oldest first. A tenant is starved
//     when the job has waited longer than the configured window AND the
//     tenant has not been allocated any machine within that window (per
//     ObserveStart). Serving one job per starved tenant per pass, and
//     treating a backlogged-but-served burst as not starved, keeps the
//     guard a progress guarantee rather than a way to monopolize the
//     pool. "Oldest" is decided over the refs of that one SortKeysAt call,
//     so keys from different calls must not be mixed.
//  2. Effective priority of the owning tenant, higher first.
//  3. The job's static priority, higher first.
//  4. Submission order (time, then sequence) — FIFO.
//
// Step 2 is what makes the queue time-aware: as a bursty tenant's decayed
// usage grows, its remaining jobs sink below other tenants' regardless of
// static priority.
func LessKeys(a, b JobRef, ka, kb SortKey) bool {
	if ka.Starved != kb.Starved {
		return ka.Starved
	}
	if ka.Starved { // both starved: strict FIFO so the oldest progresses
		if !a.Submitted.Equal(b.Submitted) {
			return a.Submitted.Before(b.Submitted)
		}
		return a.Seq < b.Seq
	}
	// Exact comparison keeps the order a strict weak ordering (an epsilon
	// band would break transitivity of equivalence); tenants with
	// identical weights and usage produce bitwise-equal priorities, so
	// equal standing still falls through to the static tie-breaks.
	if ka.Effective != kb.Effective {
		return ka.Effective > kb.Effective
	}
	if a.StaticPriority != b.StaticPriority {
		return a.StaticPriority > b.StaticPriority
	}
	if !a.Submitted.Equal(b.Submitted) {
		return a.Submitted.Before(b.Submitted)
	}
	return a.Seq < b.Seq
}

// Sink receives consumed usage as amounts: the quota service's ledger
// subscribers report charged usage through it. The execution service
// reports running jobs' CPU through the FlowSink extension instead.
type Sink interface {
	RecordUsage(tenant, site string, cpuSeconds float64)
}

// StartObserver receives job-start notifications from the execution
// service. The starvation guard needs them to distinguish a tenant that
// is backlogged but being served (a burst working its way through) from
// one that is actually starved: only the latter's jobs are promoted.
type StartObserver interface {
	ObserveStart(t *Tenant, at time.Time)
}

// ObserveStart records that tenant t (a handle of this manager's, see
// Tenant) was allocated a machine at the given time. The start lives on
// the tenant's account, which it registers, so the export carries it.
func (m *Manager) ObserveStart(t *Tenant, at time.Time) {
	if t.g == nil {
		m.register(t)
	}
	if at.After(t.lastStart) {
		t.lastStart = at
	}
}

// isStarved reports whether the job's wait and its owner's allocation
// drought both exceed the starvation window; t is the owner's account, nil
// when the owner is not known.
func (m *Manager) isStarved(t *Tenant, r JobRef, now time.Time) bool {
	if now.Sub(r.Submitted) < m.cfg.StarvationWindow {
		return false
	}
	return t == nil || now.Sub(t.lastStart) >= m.cfg.StarvationWindow
}
