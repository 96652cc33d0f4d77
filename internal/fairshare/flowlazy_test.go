package fairshare

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"repro/internal/vtime"
)

// Lazy-vs-eager accrual equivalence: a manager fed through a usage flow
// (closed-form accrual settled at read points) must agree with a manager
// fed the same CPU through fine-grained eager RecordUsage calls — at
// randomized read points mid-flight within discretization tolerance, and
// at the terminal Close, which reconciles to the measured total.

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestFlowLazyMatchesEagerAccrual(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const tick = 50 * time.Millisecond
	for trial := 0; trial < 12; trial++ {
		clkL := vtime.NewSimClock(time.Time{})
		clkE := vtime.NewSimClock(time.Time{})
		halfLife := time.Minute
		if trial%3 == 2 {
			halfLife = -1 // decay disabled: totals must agree almost exactly
		}
		lazy := NewManager(Config{Clock: clkL, HalfLife: halfLife})
		eager := NewManager(Config{Clock: clkE, HalfLife: halfLife})

		rate := 0.5 + rng.Float64()
		flow := lazy.OpenFlow(lazy.Tenant("alice"), "cern", rate)
		var accrued float64 // ground-truth CPU delivered, tick by tick

		// Random piecewise-constant rate schedule, advanced in lockstep.
		elapsed := time.Duration(0)
		horizon := 30 * time.Second
		nextChange := time.Duration(1+rng.Intn(5)) * time.Second
		nextRead := time.Duration(1+rng.Intn(3)) * time.Second
		for elapsed < horizon {
			clkL.Advance(tick)
			clkE.Advance(tick)
			elapsed += tick
			accrued += rate * tick.Seconds()
			eager.RecordUsage("alice", "cern", rate*tick.Seconds())
			if elapsed >= nextChange {
				rate = rng.Float64() * 2
				flow.SetRate(rate)
				nextChange = elapsed + time.Duration(1+rng.Intn(5))*time.Second
			}
			if elapsed >= nextRead {
				nextRead = elapsed + time.Duration(1+rng.Intn(3))*time.Second
				tol := 1e-3
				if halfLife < 0 {
					tol = 1e-9 // only float association differs
				}
				if d := relDiff(lazy.Usage("alice"), eager.Usage("alice")); d > tol {
					t.Fatalf("trial %d at %v: usage lazy=%v eager=%v (rel %v)",
						trial, elapsed, lazy.Usage("alice"), eager.Usage("alice"), d)
				}
				if d := relDiff(lazy.EffectivePriority("alice"), eager.EffectivePriority("alice")); d > tol {
					t.Fatalf("trial %d at %v: ep lazy=%v eager=%v (rel %v)",
						trial, elapsed, lazy.EffectivePriority("alice"), eager.EffectivePriority("alice"), d)
				}
				if d := relDiff(lazy.SiteUsage("alice", "cern"), eager.SiteUsage("alice", "cern")); d > tol {
					t.Fatalf("trial %d at %v: site usage lazy=%v eager=%v (rel %v)",
						trial, elapsed, lazy.SiteUsage("alice", "cern"), eager.SiteUsage("alice", "cern"), d)
				}
			}
		}
		// Terminal reconciliation: Close settles the account to the
		// measured CPU; both managers have then been fed exactly accrued.
		flow.Close(accrued)
		tol := 1e-3
		if halfLife < 0 {
			tol = 1e-9
		}
		if d := relDiff(lazy.Usage("alice"), eager.Usage("alice")); d > tol {
			t.Fatalf("trial %d terminal: usage lazy=%v eager=%v (rel %v)",
				trial, lazy.Usage("alice"), eager.Usage("alice"), d)
		}
		if halfLife < 0 {
			if d := relDiff(lazy.Usage("alice"), accrued); d > 1e-9 {
				t.Fatalf("trial %d: closed flow usage %v != measured %v", trial, lazy.Usage("alice"), accrued)
			}
		}
	}
}

// TestFlowRateZeroAccruesNothing: a suspended flow (rate 0) must leave
// usage exactly flat across an arbitrarily long idle gap.
func TestFlowRateZeroAccruesNothing(t *testing.T) {
	clk := vtime.NewSimClock(time.Time{})
	m := NewManager(Config{Clock: clk, HalfLife: -1})
	f := m.OpenFlow(m.Tenant("bob"), "desy", 2.0)
	clk.Advance(10 * time.Second)
	got := m.Usage("bob")
	f.SetRate(0)
	clk.Advance(1000 * time.Hour)
	if m.Usage("bob") != got {
		t.Fatalf("suspended flow accrued: %v -> %v", got, m.Usage("bob"))
	}
	f.SetRate(2.0)
	clk.Advance(5 * time.Second)
	f.Close(30)
	if d := relDiff(m.Usage("bob"), 30); d > 1e-9 {
		t.Fatalf("closed usage %v, want 30", m.Usage("bob"))
	}
}

// Every running job holds a usage flow for as long as it runs: one 64-byte
// allocation. A negotiation pass prices each tenant with an idle job once,
// through its handle (StandingAt), and that allocates nothing, in a pool
// of many tenants, with tenants starved, and with the two owners that are
// one tenant. The per-job form, AppendSortKeys, allocates nothing into a
// grown buffer either — nor when owners have starved and the guard picks
// each one's oldest ref, by name or by handle — and is a loop over
// StandingAt plus the guard's one starved pick per tenant.
func TestFlowAndSortKeysAllocations(t *testing.T) {
	if got := unsafe.Sizeof(flow{}); got > 64 {
		t.Errorf("unsafe.Sizeof(flow{}) = %d bytes, want <= 64", got)
	}
	clk := vtime.NewSimClock(time.Time{})
	m := NewManager(Config{Clock: clk})
	submitted := clk.Now()
	refs := []JobRef{{Owner: "atlas", Submitted: submitted, Seq: 1}, {Owner: "cms", Submitted: submitted, Seq: 2}}
	keys := m.AppendSortKeys(nil, clk.Now(), refs)
	if got := testing.AllocsPerRun(100, func() { keys = m.AppendSortKeys(keys[:0], clk.Now(), refs) }); got != 0 {
		t.Errorf("AppendSortKeys into a grown buffer allocates %v times, want 0", got)
	}
	if want := m.SortKeysAt(clk.Now(), refs); !slices.Equal(keys, want) {
		t.Errorf("AppendSortKeys = %v, SortKeysAt = %v", keys, want)
	}
	// Refs that carry their tenant's handle, as a negotiator's do.
	handled := slices.Clone(refs)
	for i := range handled {
		handled[i].Tenant = m.Tenant(handled[i].Owner)
	}
	if got := testing.AllocsPerRun(100, func() { keys = m.AppendSortKeys(keys[:0], clk.Now(), handled) }); got != 0 {
		t.Errorf("AppendSortKeys over handle refs allocates %v times, want 0", got)
	}
	if want := m.SortKeysAt(clk.Now(), refs); !slices.Equal(keys, want) {
		t.Errorf("handle refs: AppendSortKeys = %v, by name = %v", keys, want)
	}

	// Starved: every ref has waited past the window and nobody was served.
	// Each owner's oldest ref — whatever its place in refs — is marked.
	clk.Advance(2 * DefaultStarvationWindow)
	starved := []JobRef{
		{Owner: "atlas", Submitted: submitted.Add(time.Second), Seq: 3},
		{Owner: "cms", Submitted: submitted, Seq: 2},
		{Owner: "atlas", Submitted: submitted, Seq: 4},
		{Owner: "", Submitted: submitted, Seq: 5},
		{Owner: "atlas", Submitted: submitted, Seq: 1},
		{Owner: Anonymous, Submitted: submitted, Seq: 6},
	}
	keys = m.AppendSortKeys(keys[:0], clk.Now(), starved)
	if got := testing.AllocsPerRun(100, func() { keys = m.AppendSortKeys(keys[:0], clk.Now(), starved) }); got != 0 {
		t.Errorf("AppendSortKeys with starved owners allocates %v times, want 0", got)
	}
	if want := m.SortKeysAt(clk.Now(), starved); !slices.Equal(keys, want) {
		t.Errorf("starved: AppendSortKeys = %v, SortKeysAt = %v", keys, want)
	}
	handled = slices.Clone(starved)
	for i := range handled {
		handled[i].Tenant = m.Tenant(handled[i].Owner)
	}
	if got := testing.AllocsPerRun(100, func() { keys = m.AppendSortKeys(keys[:0], clk.Now(), handled) }); got != 0 {
		t.Errorf("AppendSortKeys over starved handle refs allocates %v times, want 0", got)
	}
	if want := m.SortKeysAt(clk.Now(), starved); !slices.Equal(keys, want) {
		t.Errorf("starved handle refs: AppendSortKeys = %v, by name = %v", keys, want)
	}
	for i, want := range []bool{false, true, false, true, true, false} {
		if keys[i].Starved != want {
			t.Errorf("ref %d (%+v): Starved = %v, want %v", i, starved[i], keys[i].Starved, want)
		}
	}

	// A grown pool: 64 owners, "" and Anonymous among them, some with
	// usage, flows and recent starts. Pricing every one at a new instant,
	// which settles their accounts, allocates nothing.
	owners := []string{"", Anonymous}
	for i := len(owners); i < 64; i++ {
		owners = append(owners, "t"+strconv.Itoa(i))
	}
	handles := make([]*Tenant, len(owners))
	for i, o := range owners {
		handles[i] = m.Tenant(o)
		switch i % 4 {
		case 1:
			m.RecordUsage(o, "site", float64(i))
		case 2:
			m.OpenFlow(handles[i], "site", float64(i)/8)
		case 3:
			m.ObserveStart(handles[i], clk.Now())
		}
	}
	if handles[0] != handles[1] {
		t.Fatalf(`Tenant("") and Tenant(%q) are different handles`, Anonymous)
	}
	price := func() {
		clk.Advance(time.Second)
		for _, h := range handles {
			if st := m.StandingAt(h, clk.Now()); st.Drought() {
				st.Starved(submitted)
			}
		}
	}
	if got := testing.AllocsPerRun(100, price); got != 0 {
		t.Errorf("pricing %d owners allocates %v times, want 0", len(handles), got)
	}
	clk.Advance(2 * DefaultStarvationWindow) // the recent starts are old now: every tenant starves
	if got := testing.AllocsPerRun(100, price); got != 0 {
		t.Errorf("pricing %d starved owners allocates %v times, want 0", len(handles), got)
	}

	// SortKeysAt is StandingAt per ref plus one starved pick per tenant,
	// its oldest starved ref. Some tenants started just now, so they are
	// not starved; the rest are, with refs young and old.
	for i := 2; i < len(handles); i += 5 {
		m.ObserveStart(handles[i], clk.Now())
	}
	now := clk.Now()
	var pool []JobRef
	for i, o := range owners {
		pool = append(pool,
			JobRef{Owner: o, Submitted: now.Add(-time.Duration(i%3) * DefaultStarvationWindow), Seq: 2 * i},
			JobRef{Owner: o, Submitted: now.Add(-DefaultStarvationWindow), Seq: 2*i + 1})
	}
	keys = m.SortKeysAt(now, pool)
	pick := make(map[*Tenant]int)
	picks := 0
	for i, r := range pool {
		h := m.Tenant(r.Owner)
		st := m.StandingAt(h, now)
		if keys[i].Effective != st.Effective {
			t.Errorf("ref %d (%q): SortKeysAt's effective %v, StandingAt's %v", i, r.Owner, keys[i].Effective, st.Effective)
		}
		if !st.Starved(r.Submitted) {
			continue
		}
		if k, ok := pick[h]; !ok || olderRef(r, pool[k]) {
			pick[h] = i
		}
	}
	for i, r := range pool {
		k, ok := pick[m.Tenant(r.Owner)]
		if want := ok && k == i; keys[i].Starved != want {
			t.Errorf("ref %d (%+v): Starved = %v, want %v", i, r, keys[i].Starved, want)
		}
		if keys[i].Starved {
			picks++
		}
	}
	if _, ok := pick[handles[0]]; !ok || picks >= len(handles)-1 {
		t.Errorf("%d starved picks among %d tenants, the one of %q and %q picked: %v; the case is vacuous", picks, len(handles)-1, "", Anonymous, ok)
	}
}

// TestSetTenantMidFlowMovesAccrual: a tenant moved to another group while
// its flow is open takes the flow with it — what accrues after the move
// lands in the new group — with the arithmetic of
// TestSetTenantMoveMigratesUsage for what accrued before.
func TestSetTenantMidFlowMovesAccrual(t *testing.T) {
	m, clock := newTestManager(Config{HalfLife: -1})
	m.SetGroup("g1", 1)
	m.SetGroup("g2", 1)
	m.SetTenant("x", "g1", 1)
	m.SetTenant("y", "g1", 1)
	f := m.OpenFlow(m.Tenant("x"), "siteA", 2)
	clock.Advance(100 * time.Second)
	m.RecordUsage("y", "", 50)
	m.SetTenant("x", "g2", 1) // x has accrued 200
	clock.Advance(100 * time.Second)
	if u := m.GroupUsage("g1"); u != 50 {
		t.Fatalf("old group usage = %v, want 50 (y's share only)", u)
	}
	if u := m.GroupUsage("g2"); u != 400 {
		t.Fatalf("new group usage = %v, want 400 (x's 200 carried over + 200 since)", u)
	}
	f.SetRate(1)
	clock.Advance(100 * time.Second)
	f.Close(550) // 50 more than the flow emitted
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"g1", m.GroupUsage("g1"), 50},
		{"g2", m.GroupUsage("g2"), 550},
		{"x", m.Usage("x"), 550},
		{"x at siteA", m.SiteUsage("x", "siteA"), 550},
	} {
		if c.got != c.want {
			t.Errorf("%s usage = %v, want %v", c.what, c.got, c.want)
		}
	}
}

// TestZeroRateFlowRegistersNothing: a flow opened at rate 0 registers no
// tenant and makes no site account — the export is byte for byte what it
// was — until it first runs at a non-zero rate; two flows opened for the
// same unknown tenant then feed the one account.
func TestZeroRateFlowRegistersNothing(t *testing.T) {
	m, clock := newTestManager(Config{HalfLife: -1})
	m.SetTenant("real", "", 1)
	m.RecordUsage("real", "siteA", 10)
	export := func() string {
		b, err := json.Marshal(m.Export())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	before := export()
	ghost := m.OpenFlow(m.Tenant("ghost"), "siteA", 0)
	twin := m.OpenFlow(m.Tenant("ghost"), "siteB", 0)
	known := m.OpenFlow(m.Tenant("real"), "siteB", 0)
	ghost.SetRate(0)
	known.SetRate(0)
	if after := export(); after != before {
		t.Fatalf("zero-rate flows changed the export:\n%s\n%s", before, after)
	}
	if _, ok := m.tenants["ghost"]; ok {
		t.Fatal("a zero-rate flow registered its tenant")
	}
	if _, ok := m.tenants["real"].sites["siteB"]; ok {
		t.Fatal("a zero-rate flow made its site account")
	}
	known.Close(0)
	if after := export(); after != before {
		t.Fatalf("closing a zero-rate flow changed the export:\n%s\n%s", before, after)
	}

	ghost.SetRate(1)
	twin.SetRate(2)
	clock.Advance(10 * time.Second)
	if u := m.Usage("ghost"); u != 30 {
		t.Fatalf("ghost usage = %v, want 30 from both flows", u)
	}
	if a, b := m.SiteUsage("ghost", "siteA"), m.SiteUsage("ghost", "siteB"); a != 10 || b != 20 {
		t.Fatalf("ghost site usage = %v at siteA, %v at siteB, want 10 and 20", a, b)
	}
	ghost.Close(10)
	twin.Close(25)
	if u := m.Usage("ghost"); u != 35 {
		t.Fatalf("ghost usage after close = %v, want the measured 35", u)
	}
}

// TestConcurrentFlowsBesideReaders keeps one flow per tenant open at once
// and opens, re-rates and closes them and observes starts, each through
// its tenant's handle, interleaved with clock steps, sort keys priced by
// name and by handle, tenants moved between groups and exports. Rates,
// totals and clock steps are whole numbers, so the books are exact: at
// the end each tenant's usage is the sum of its closed flows' totals.
func TestConcurrentFlowsBesideReaders(t *testing.T) {
	m, clock := newTestManager(Config{HalfLife: -1, StarvationWindow: time.Second})
	tenants := []string{"atlas", "cms", "lhcb", "alice"}
	const flowsEach = 200
	totals := make([]float64, len(tenants))
	refs := make([]JobRef, len(tenants))
	for i, tenant := range tenants {
		refs[i] = JobRef{Owner: tenant, Submitted: clock.Now(), Seq: i}
	}
	handled := slices.Clone(refs)
	for i := range handled {
		handled[i].Tenant = m.Tenant(handled[i].Owner)
	}
	var keys, hkeys []SortKey
	flows := make([]UsageFlow, len(tenants))
	for i := 0; i < flowsEach; i++ {
		for w, tenant := range tenants {
			h := m.Tenant(tenant)
			m.ObserveStart(h, clock.Now())
			flows[w] = m.OpenFlow(h, "site"+strconv.Itoa(i%3), float64(i%3))
		}
		for w := range tenants {
			clock.Advance(time.Second)
			flows[w].SetRate(float64(i % 5))
			keys = m.AppendSortKeys(keys[:0], clock.Now(), refs)
			hkeys = m.AppendSortKeys(hkeys[:0], clock.Now(), handled)
			m.SetTenant(tenants[(i+w)%len(tenants)], "g"+strconv.Itoa(i%2), 1)
			m.Export()
		}
		for w := range tenants {
			total := float64(i % 7)
			flows[w].Close(total)
			totals[w] += total
		}
	}
	for w, tenant := range tenants {
		if u := m.Usage(tenant); u != totals[w] {
			t.Errorf("%s usage = %v, want %v, the sum of its closed flows' totals", tenant, u, totals[w])
		}
	}
}
