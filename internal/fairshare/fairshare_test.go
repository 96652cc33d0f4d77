package fairshare

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/vtime"
)

func newTestManager(cfg Config) (*Manager, *vtime.SimClock) {
	clock := vtime.NewSimClock(time.Time{})
	cfg.Clock = clock
	return NewManager(cfg), clock
}

func TestNewManagerRequiresClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil clock accepted")
		}
	}()
	NewManager(Config{})
}

func TestUsageDecaysWithHalfLife(t *testing.T) {
	m, clock := newTestManager(Config{HalfLife: time.Minute})
	m.RecordUsage("alice", "caltech", 100)
	if u := m.Usage("alice"); math.Abs(u-100) > 1e-9 {
		t.Fatalf("fresh usage = %v", u)
	}
	clock.Advance(time.Minute)
	if u := m.Usage("alice"); math.Abs(u-50) > 1e-9 {
		t.Fatalf("usage after one half-life = %v, want 50", u)
	}
	clock.Advance(time.Minute)
	if u := m.Usage("alice"); math.Abs(u-25) > 1e-9 {
		t.Fatalf("usage after two half-lives = %v, want 25", u)
	}
	// Per-site and group usage decay on the same schedule.
	if u := m.SiteUsage("alice", "caltech"); math.Abs(u-25) > 1e-9 {
		t.Fatalf("site usage = %v, want 25", u)
	}
	if u := m.GroupUsage("default"); math.Abs(u-25) > 1e-9 {
		t.Fatalf("group usage = %v, want 25", u)
	}
}

func TestNegativeHalfLifeDisablesDecay(t *testing.T) {
	m, clock := newTestManager(Config{HalfLife: -1})
	m.RecordUsage("alice", "", 100)
	clock.Advance(24 * time.Hour)
	if u := m.Usage("alice"); math.Abs(u-100) > 1e-9 {
		t.Fatalf("usage decayed despite HalfLife<0: %v", u)
	}
}

func TestEffectivePriorityWeightOverUsage(t *testing.T) {
	m, _ := newTestManager(Config{})
	m.SetTenant("alice", "", 1)
	m.SetTenant("bob", "", 1)
	if ea, eb := m.EffectivePriority("alice"), m.EffectivePriority("bob"); math.Abs(ea-eb) > 1e-12 {
		t.Fatalf("idle equal-weight tenants differ: %v vs %v", ea, eb)
	}
	m.RecordUsage("alice", "", 300) // one usageScale halves the tenant factor
	ea, eb := m.EffectivePriority("alice"), m.EffectivePriority("bob")
	if ea >= eb {
		t.Fatalf("used tenant not deprioritized: alice %v, bob %v", ea, eb)
	}
	// alice's group also absorbed the usage; bob shares the group, so the
	// ratio reflects only the tenant factor: 1/2.
	if r := ea / eb; math.Abs(r-0.5) > 1e-9 {
		t.Fatalf("priority ratio = %v, want 0.5", r)
	}
}

func TestEffectivePriorityHierarchy(t *testing.T) {
	m, _ := newTestManager(Config{})
	m.SetGroup("atlas", 3)
	m.SetGroup("cms", 1)
	m.SetTenant("a1", "atlas", 1)
	m.SetTenant("c1", "cms", 1)
	if ea, ec := m.EffectivePriority("a1"), m.EffectivePriority("c1"); math.Abs(ea/ec-3) > 1e-9 {
		t.Fatalf("idle group-weighted ratio = %v, want 3", ea/ec)
	}
	// Usage by a sibling drags down the whole group.
	m.SetTenant("a2", "atlas", 1)
	m.RecordUsage("a2", "", 900)
	ea, ec := m.EffectivePriority("a1"), m.EffectivePriority("c1")
	if math.Abs(ea/ec-0.75) > 1e-9 { // 3 × 300/(300+900) = 0.75
		t.Fatalf("post-sibling-usage ratio = %v, want 0.75", ea/ec)
	}
}

// less reports whether a negotiation pass over a and b at the given
// instant offers a first: LessKeys over one SortKeysAt call.
func less(m *Manager, now time.Time, a, b JobRef) bool {
	k := m.SortKeysAt(now, []JobRef{a, b})
	return LessKeys(a, b, k[0], k[1])
}

func TestLessOrdersByEffectivePriority(t *testing.T) {
	m, clock := newTestManager(Config{})
	epoch := clock.Now()
	a := JobRef{Owner: "alice", Submitted: epoch, Seq: 1}
	b := JobRef{Owner: "bob", Submitted: epoch, Seq: 2}
	// Equal standing: FIFO by sequence.
	if !less(m, clock.Now(), a, b) || less(m, clock.Now(), b, a) {
		t.Fatal("equal standing should fall back to FIFO")
	}
	m.RecordUsage("alice", "", 500)
	if !less(m, clock.Now(), b, a) || less(m, clock.Now(), a, b) {
		t.Fatal("bob should precede the heavy user alice")
	}
	// Static priority only breaks effective-priority ties.
	hot := JobRef{Owner: "alice", StaticPriority: 99, Submitted: epoch, Seq: 3}
	if less(m, clock.Now(), hot, b) {
		t.Fatal("static priority must not override fair-share standing")
	}
	aHot := JobRef{Owner: "alice", StaticPriority: 1, Submitted: epoch, Seq: 4}
	aCold := JobRef{Owner: "alice", Submitted: epoch, Seq: 5}
	if !less(m, clock.Now(), aHot, aCold) {
		t.Fatal("same owner: higher static priority first")
	}
}

func TestStarvationGuard(t *testing.T) {
	m, clock := newTestManager(Config{StarvationWindow: time.Minute})
	old := JobRef{Owner: "heavy", Submitted: clock.Now(), Seq: 1}
	m.RecordUsage("heavy", "", 1e6) // heavy is far beyond its share
	clock.Advance(2 * time.Minute)
	fresh := JobRef{Owner: "light", Submitted: clock.Now(), Seq: 2}
	if !less(m, clock.Now(), old, fresh) {
		t.Fatal("starved job should outrank any fresh job")
	}
	// Guard disabled: standing decides again.
	m2, clock2 := newTestManager(Config{StarvationWindow: -1})
	old2 := JobRef{Owner: "heavy", Submitted: clock2.Now(), Seq: 1}
	m2.RecordUsage("heavy", "", 1e6)
	clock2.Advance(2 * time.Minute)
	fresh2 := JobRef{Owner: "light", Submitted: clock2.Now(), Seq: 2}
	if less(m2, clock2.Now(), old2, fresh2) {
		t.Fatal("with the guard disabled the light tenant should win")
	}
	// Two starved jobs: strict FIFO.
	clock.Advance(time.Hour)
	s1 := JobRef{Owner: "light", Submitted: clock.Now().Add(-3 * time.Hour), Seq: 9}
	s2 := JobRef{Owner: "light", Submitted: clock.Now().Add(-2 * time.Hour), Seq: 3}
	if !less(m, clock.Now(), s1, s2) || less(m, clock.Now(), s2, s1) {
		t.Fatal("starved jobs must order oldest-first")
	}
}

func TestServedTenantIsNotStarved(t *testing.T) {
	m, clock := newTestManager(Config{StarvationWindow: time.Minute})
	old := JobRef{Owner: "burst", Submitted: clock.Now(), Seq: 1}
	clock.Advance(2 * time.Minute)
	// burst keeps receiving machines, so its aged backlog is merely
	// queued, not starved — effective priority must decide instead.
	m.ObserveStart(m.Tenant("burst"), clock.Now())
	m.RecordUsage("burst", "", 500)
	fresh := JobRef{Owner: "light", Submitted: clock.Now(), Seq: 2}
	if less(m, clock.Now(), old, fresh) {
		t.Fatal("backlogged-but-served tenant must not jump the queue via the guard")
	}
	if !less(m, clock.Now(), fresh, old) {
		t.Fatal("light tenant should win on effective priority")
	}
}

func TestStarvationGuardPromotesOneJobPerTenant(t *testing.T) {
	m, clock := newTestManager(Config{StarvationWindow: time.Minute})
	epoch := clock.Now()
	m.RecordUsage("heavy", "", 1000) // heavy would lose on effective priority
	clock.Advance(2 * time.Minute)
	now := clock.Now()
	refs := []JobRef{
		{Owner: "heavy", Submitted: epoch, Seq: 1},
		{Owner: "heavy", Submitted: epoch, Seq: 2},
		{Owner: "fresh", Submitted: now, Seq: 3},
	}
	keys := m.SortKeysAt(now, refs)
	if !keys[0].Starved || keys[1].Starved || keys[2].Starved {
		t.Fatalf("starved flags = %+v, want only heavy's oldest", keys)
	}
	// Oldest starved job leads; the rest of heavy's backlog still yields
	// to the fresh tenant on effective priority.
	if !LessKeys(refs[0], refs[2], keys[0], keys[2]) {
		t.Fatal("oldest starved job should precede the fresh job")
	}
	if LessKeys(refs[1], refs[2], keys[1], keys[2]) {
		t.Fatal("heavy's second job must not ride the guard past the fresh tenant")
	}
}

// TestSortKeysMatchPairwiseOrder: LessKeys over one SortKeysAt call is a
// strict total order on the refs priced together — exactly one direction
// holds for every distinct pair — and sorting by it yields the policy's
// order: the starved pick, then effective priority, static priority, FIFO.
func TestSortKeysMatchPairwiseOrder(t *testing.T) {
	m, clock := newTestManager(Config{StarvationWindow: time.Minute})
	epoch := clock.Now()
	m.RecordUsage("heavy", "", 800)
	m.RecordUsage("mid", "", 100)
	clock.Advance(90 * time.Second)
	now := clock.Now()
	refs := []JobRef{
		{Owner: "heavy", StaticPriority: 9, Submitted: epoch, Seq: 1}, // starved (no starts)
		{Owner: "mid", Submitted: now, Seq: 2},
		{Owner: "fresh", Submitted: now, Seq: 3},
		{Owner: "heavy", StaticPriority: 2, Submitted: now, Seq: 4},
		{Owner: "fresh", StaticPriority: 5, Submitted: now, Seq: 5},
	}
	keys := m.SortKeysAt(now, refs)
	order := []int{0, 1, 2, 3, 4}
	sort.Slice(order, func(a, b int) bool {
		return LessKeys(refs[order[a]], refs[order[b]], keys[order[a]], keys[order[b]])
	})
	if want := []int{0, 4, 2, 1, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("sorted order = %v, want %v", order, want)
	}
	for i := range refs {
		for j := range refs {
			ij := LessKeys(refs[i], refs[j], keys[i], keys[j])
			ji := LessKeys(refs[j], refs[i], keys[j], keys[i])
			if (i == j && ij) || (i != j && ij == ji) {
				t.Fatalf("LessKeys(%d,%d)=%v and LessKeys(%d,%d)=%v: not a strict total order", i, j, ij, j, i, ji)
			}
		}
	}
}

func TestSetTenantMoveMigratesUsage(t *testing.T) {
	m, _ := newTestManager(Config{HalfLife: -1})
	m.SetGroup("g1", 1)
	m.SetGroup("g2", 1)
	m.SetTenant("x", "g1", 1)
	m.SetTenant("y", "g1", 1)
	m.RecordUsage("x", "", 1000)
	m.RecordUsage("y", "", 50)
	m.SetTenant("x", "g2", 1)
	if u := m.GroupUsage("g1"); math.Abs(u-50) > 1e-9 {
		t.Fatalf("old group usage = %v, want 50 (y's share only)", u)
	}
	if u := m.GroupUsage("g2"); math.Abs(u-1000) > 1e-9 {
		t.Fatalf("new group usage = %v, want 1000", u)
	}
	if u := m.Usage("x"); math.Abs(u-1000) > 1e-9 {
		t.Fatalf("tenant usage changed by move: %v", u)
	}
}

func TestEffectivePriorityReadDoesNotRegister(t *testing.T) {
	m, _ := newTestManager(Config{})
	m.SetTenant("real", "", 1)
	ghost := m.EffectivePriority("ghost")
	if real := m.EffectivePriority("real"); math.Abs(ghost-real) > 1e-12 {
		t.Fatalf("unknown tenant EP = %v, want fresh default %v", ghost, real)
	}
	if _, ok := m.tenants["ghost"]; ok {
		t.Fatal("EffectivePriority read minted a ghost tenant")
	}
}

// TestLessAtUsesExplicitInstant: the instant handed to SortKeysAt — not
// the manager's clock — decides who has starved.
func TestLessAtUsesExplicitInstant(t *testing.T) {
	m, clock := newTestManager(Config{StarvationWindow: time.Minute})
	a := JobRef{Owner: "x", Submitted: clock.Now(), Seq: 1}
	b := JobRef{Owner: "y", Submitted: clock.Now(), Seq: 2}
	m.RecordUsage("x", "", 500)
	// At the current instant, y wins on effective priority.
	if less(m, clock.Now(), a, b) {
		t.Fatal("heavy x should not precede y now")
	}
	// At an instant two windows in the future, a has starved: the explicit
	// timestamp — not the clock — must decide.
	future := clock.Now().Add(2 * time.Minute)
	if !less(m, future, a, b) {
		t.Fatal("starved a should precede at the future instant")
	}
}

func TestAnonymousOwnerCannotBypassFairShare(t *testing.T) {
	m, clock := newTestManager(Config{StarvationWindow: time.Minute})
	// Ownerless work accounts to the Anonymous tenant: it accrues usage
	// and allocation history like anyone else.
	m.RecordUsage("", "siteA", 500)
	if u := m.Usage(Anonymous); math.Abs(u-500) > 1e-9 {
		t.Fatalf("anonymous usage = %v", u)
	}
	if u := m.Usage(""); math.Abs(u-500) > 1e-9 {
		t.Fatalf("empty-name query = %v", u)
	}
	submitted := clock.Now()
	clock.Advance(2 * time.Minute)
	m.ObserveStart(m.Tenant(""), clock.Now()) // ownerless work keeps being served
	old := JobRef{Owner: "", Submitted: submitted, Seq: 1}
	fresh := JobRef{Owner: "light", Submitted: clock.Now(), Seq: 2}
	if less(m, clock.Now(), old, fresh) {
		t.Fatal("ownerless job must not outrank a light tenant via the guard")
	}
	if !less(m, clock.Now(), fresh, old) {
		t.Fatal("light tenant should win on effective priority")
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{10, 10, 10, 10}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("equal allocations: J = %v", j)
	}
	if j := JainIndex([]float64{100, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("single-winner: J = %v, want 1/n", j)
	}
	if j := JainIndex(nil); j != 0 {
		t.Fatalf("empty: J = %v", j)
	}
	if j := JainIndex([]float64{0, 0}); j != 0 {
		t.Fatalf("all-zero: J = %v", j)
	}
	mid := JainIndex([]float64{30, 20, 10})
	if mid <= 0.25 || mid >= 1 {
		t.Fatalf("skewed: J = %v, want strictly between 1/n and 1", mid)
	}
}

func TestMinShare(t *testing.T) {
	if s := MinShare([]float64{10, 10}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("equal: %v", s)
	}
	if s := MinShare([]float64{100, 0}); s != 0 {
		t.Fatalf("starved: %v", s)
	}
	if s := MinShare(nil); s != 0 {
		t.Fatalf("empty: %v", s)
	}
}

// TestDecayFactorReuseIsExact: a settle reuses the decay factor of the
// last settle when its elapsed time is the same, and the reuse is exact.
// Accounts settled back to back over one elapsed time, over alternating
// ones, around a change of inflow rate, and with decay disabled each end
// bit for bit where a settle that calls math.Exp2 every time puts them.
func TestDecayFactorReuseIsExact(t *testing.T) {
	for _, hl := range []time.Duration{time.Minute, 7 * time.Second, -1} {
		m, _ := newTestManager(Config{HalfLife: hl})
		// settle is decay as it reads without the memo.
		settle := func(a *account, now int64) {
			dt := time.Duration(now - a.last)
			if a.last == unsettled || dt <= 0 {
				a.last = max(a.last, now)
				return
			}
			a.last = now
			if hl < 0 {
				a.usage += a.rate * dt.Seconds()
				return
			}
			d := math.Exp2(-float64(dt) / float64(hl))
			u := a.usage * d
			if a.rate != 0 {
				u += a.rate * (hl.Seconds() / math.Ln2) * (1 - d)
			}
			a.usage = u
		}
		got := []*account{{usage: 100, last: 0}, {usage: 3, rate: 0.75, last: 0}, {rate: 2, last: 0}, {usage: 41, last: 5e8}}
		want := make([]*account, len(got))
		for i, a := range got {
			want[i] = &account{usage: a.usage, rate: a.rate, last: a.last}
		}
		now := int64(5e8)
		step := func(dt time.Duration, accounts ...int) {
			now += int64(dt)
			for _, i := range accounts {
				m.decay(got[i], now)
				settle(want[i], now)
			}
		}
		for k := 0; k < 6; k++ { // one elapsed time, back to back
			step(3*time.Second, 0, 1, 2, 3)
		}
		for k := 0; k < 6; k++ { // alternating elapsed times
			step([]time.Duration{time.Second, 5 * time.Second}[k%2], 0, 1, 2, 3)
		}
		step(2*time.Second, 0, 1) // 2 and 3 fall behind: their elapsed times differ
		step(2*time.Second, 2, 3, 0, 1)
		got[1].rate, want[1].rate = 4.5, 4.5 // a rate change between settles
		got[3].rate, want[3].rate = 0.25, 0.25
		for k := 0; k < 4; k++ {
			step(3*time.Second, 3, 2, 1, 0)
			step(time.Duration(k+1)*time.Second, 1, 3)
		}
		for i := range got {
			if math.Float64bits(got[i].usage) != math.Float64bits(want[i].usage) {
				t.Errorf("half-life %v, account %d: usage %v (bits %x), settling with math.Exp2 every time %v (bits %x)",
					hl, i, got[i].usage, math.Float64bits(got[i].usage), want[i].usage, math.Float64bits(want[i].usage))
			}
		}
	}
}
