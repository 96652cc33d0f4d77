package quota

import (
	"errors"
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)

func TestRatesAndCost(t *testing.T) {
	s := NewService()
	s.SetRate("caltech", Rate{CPUSecond: 0.01, TransferMB: 0.001})
	r, err := s.Rate("caltech")
	if err != nil || r.CPUSecond != 0.01 {
		t.Fatalf("Rate = %+v, %v", r, err)
	}
	if _, err := s.Rate("nowhere"); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("unknown site error = %v", err)
	}
	c, err := s.Cost("caltech", 1000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-10.5) > 1e-9 {
		t.Fatalf("Cost = %v", c)
	}
	if _, err := s.Cost("caltech", -1, 0); err == nil {
		t.Fatal("negative usage accepted")
	}
}

func TestSetRateNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative rate accepted")
		}
	}()
	NewService().SetRate("x", Rate{CPUSecond: -1})
}

func TestGrantBalanceCharge(t *testing.T) {
	s := NewService()
	s.SetRate("nust", Rate{CPUSecond: 0.02})
	s.Grant("alice", 100)
	if b, _ := s.Balance("alice"); b != 100 {
		t.Fatalf("balance = %v", b)
	}
	if _, err := s.Balance("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown user error = %v", err)
	}
	cost, err := s.Charge("alice", "nust", 1000, 0, t0, "job 1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-20) > 1e-9 {
		t.Fatalf("charge = %v", cost)
	}
	if b, _ := s.Balance("alice"); math.Abs(b-80) > 1e-9 {
		t.Fatalf("post-charge balance = %v", b)
	}
	// Overdraw.
	if _, err := s.Charge("alice", "nust", 1e6, 0, t0, "huge"); !errors.Is(err, ErrInsufficientCredit) {
		t.Fatalf("overdraw error = %v", err)
	}
	if b, _ := s.Balance("alice"); math.Abs(b-80) > 1e-9 {
		t.Fatalf("failed charge mutated balance: %v", b)
	}
	// Unknown user / site.
	if _, err := s.Charge("ghost", "nust", 1, 0, t0, ""); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("ghost charge error = %v", err)
	}
	if _, err := s.Charge("alice", "mars", 1, 0, t0, ""); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("mars charge error = %v", err)
	}
}

// TestBadAmountsAreRefused: a grant, a quote or a charge of a negative or
// non-finite amount is an error, and the balance does not move.
func TestBadAmountsAreRefused(t *testing.T) {
	s := NewService()
	s.SetRate("a", Rate{CPUSecond: 1, TransferMB: 1})
	if err := s.Grant("alice", 100); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.Grant("alice", v); err == nil {
			t.Errorf("Grant(%v) accepted", v)
		}
		if _, err := s.Cost("a", v, 0); err == nil {
			t.Errorf("Cost(cpu %v) accepted", v)
		}
		if _, _, err := s.CheapestSite([]string{"a"}, 0, v); err == nil {
			t.Errorf("CheapestSite(mb %v) accepted", v)
		}
		if _, err := s.Charge("alice", "a", v, 0, t0, ""); err == nil {
			t.Errorf("Charge(cpu %v) accepted", v)
		}
		if _, err := s.Charge("alice", "a", 0, v, t0, ""); err == nil {
			t.Errorf("Charge(mb %v) accepted", v)
		}
	}
	if b, _ := s.Balance("alice"); b != 100 {
		t.Fatalf("balance %v after refused calls, want 100", b)
	}
}

func TestCheapestSite(t *testing.T) {
	s := NewService()
	s.SetRate("expensive", Rate{CPUSecond: 0.10})
	s.SetRate("cheap", Rate{CPUSecond: 0.01})
	s.SetRate("transferheavy", Rate{CPUSecond: 0.01, TransferMB: 10})
	site, cost, err := s.CheapestSite([]string{"expensive", "cheap", "transferheavy"}, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if site != "cheap" || math.Abs(cost-1) > 1e-9 {
		t.Fatalf("cheapest = %s @ %v", site, cost)
	}
	// Transfer volume can flip the answer.
	site, _, err = s.CheapestSite([]string{"cheap", "expensive"}, 1, 0)
	if err != nil || site != "cheap" {
		t.Fatalf("cpu-only cheapest = %s, %v", site, err)
	}
	// Unknown candidates are skipped; all-unknown errors.
	site, _, err = s.CheapestSite([]string{"mars", "cheap"}, 10, 0)
	if err != nil || site != "cheap" {
		t.Fatalf("partial-unknown = %s, %v", site, err)
	}
	if _, _, err := s.CheapestSite([]string{"mars"}, 10, 0); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("all-unknown error = %v", err)
	}
	if _, _, err := s.CheapestSite(nil, 10, 0); err == nil {
		t.Fatal("empty candidates accepted")
	}
}

func TestCheapestSiteTieBreaksByName(t *testing.T) {
	s := NewService()
	s.SetRate("zeta", Rate{CPUSecond: 0.01})
	s.SetRate("alpha", Rate{CPUSecond: 0.01})
	site, _, err := s.CheapestSite([]string{"zeta", "alpha"}, 100, 0)
	if err != nil || site != "alpha" {
		t.Fatalf("tie break = %s, %v", site, err)
	}
}

func TestLedger(t *testing.T) {
	s := NewService()
	s.SetRate("s", Rate{CPUSecond: 1})
	s.Grant("alice", 100)
	s.Grant("bob", 100)
	s.Charge("alice", "s", 10, 0, t0, "a1")
	s.Charge("bob", "s", 20, 0, t0.Add(time.Minute), "b1")
	s.Charge("alice", "s", 5, 0, t0.Add(2*time.Minute), "a2")
	st, err := s.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	ledger := st.Ledger
	if len(ledger) != 3 || ledger[0].Note != "a1" || ledger[1].Note != "b1" || ledger[2].Note != "a2" {
		t.Fatalf("ledger = %+v", ledger)
	}
	if ledger[0].User != "alice" || ledger[0].Credits != 10 {
		t.Fatalf("first charge = %+v", ledger[0])
	}
}

func TestSubscribeNotifiesSuccessfulChargesOnly(t *testing.T) {
	s := NewService()
	s.SetRate("caltech", Rate{CPUSecond: 0.01, TransferMB: 0.001})
	s.SetRate("nust", Rate{CPUSecond: 0.05})
	s.Grant("alice", 100)
	var got []Charge
	s.Subscribe(func(c Charge) { got = append(got, c) })

	if _, err := s.Charge("alice", "caltech", 1000, 500, t0, "job 1"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("listener calls = %d", len(got))
	}
	c := got[0]
	if c.User != "alice" || c.Site != "caltech" || c.CPUSeconds != 1000 || c.MB != 500 {
		t.Fatalf("charge = %+v", c)
	}
	if math.Abs(c.Credits-10.5) > 1e-9 {
		t.Fatalf("credits = %v", c.Credits)
	}
	// The transfer slice is priced at billing time and carried on the
	// entry, so subscribers never re-derive it from mutable rates.
	if math.Abs(c.TransferCredits-0.5) > 1e-9 {
		t.Fatalf("transfer credits = %v", c.TransferCredits)
	}

	// Failed charges never notify: overdraw, unknown user, unknown site.
	if _, err := s.Charge("alice", "nust", 1e6, 0, t0, ""); !errors.Is(err, ErrInsufficientCredit) {
		t.Fatalf("overdraw = %v", err)
	}
	if _, err := s.Charge("ghost", "nust", 1, 0, t0, ""); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("ghost = %v", err)
	}
	if _, err := s.Charge("alice", "mars", 1, 0, t0, ""); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("mars = %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("failed charges notified: %d calls", len(got))
	}

	// Per-site rates produce per-site credits in the same ledger.
	if _, err := s.Charge("alice", "nust", 100, 0, t0, "job 2"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || math.Abs(got[1].Credits-5) > 1e-9 {
		t.Fatalf("nust charge = %+v", got[len(got)-1])
	}
}

func TestSubscribeNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil listener accepted")
		}
	}()
	NewService().Subscribe(nil)
}

func TestSubscribeListenerMayCallBack(t *testing.T) {
	s := NewService()
	s.SetRate("s", Rate{CPUSecond: 1})
	s.Grant("alice", 100)
	var seen float64
	s.Subscribe(func(c Charge) {
		// Listeners run outside the lock, so reading the service back is
		// legal (the fair-share bridge does exactly this kind of thing).
		b, err := s.Balance(c.User)
		if err != nil {
			t.Errorf("Balance in listener: %v", err)
		}
		seen = b
	})
	if _, err := s.Charge("alice", "s", 30, 0, t0, ""); err != nil {
		t.Fatal(err)
	}
	if math.Abs(seen-70) > 1e-9 {
		t.Fatalf("balance seen in listener = %v", seen)
	}
}
