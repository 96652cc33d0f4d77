package fairshare

import (
	"math"
	"math/rand"
	"slices"
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
		flow := lazy.OpenFlow("alice", "cern", rate)
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
	f := m.OpenFlow("bob", "desy", 2.0)
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
// allocation, and none for a negotiation pass's sort keys once the
// negotiator's buffer has grown to the pass.
func TestFlowAndSortKeysAllocations(t *testing.T) {
	if got := unsafe.Sizeof(flow{}); got > 64 {
		t.Errorf("unsafe.Sizeof(flow{}) = %d bytes, want <= 64", got)
	}
	clk := vtime.NewSimClock(time.Time{})
	m := NewManager(Config{Clock: clk})
	refs := []JobRef{{Owner: "atlas", Submitted: clk.Now(), Seq: 1}, {Owner: "cms", Submitted: clk.Now(), Seq: 2}}
	keys := m.AppendSortKeys(nil, clk.Now(), refs)
	if got := testing.AllocsPerRun(100, func() { keys = m.AppendSortKeys(keys[:0], clk.Now(), refs) }); got != 0 {
		t.Errorf("AppendSortKeys into a grown buffer allocates %v times, want 0", got)
	}
	if want := m.SortKeysAt(clk.Now(), refs); !slices.Equal(keys, want) {
		t.Errorf("AppendSortKeys = %v, SortKeysAt = %v", keys, want)
	}
}
