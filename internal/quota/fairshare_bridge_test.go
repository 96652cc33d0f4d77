package quota_test

import (
	"math"
	"testing"

	"repro/internal/fairshare"
	"repro/internal/quota"
	"repro/internal/vtime"
)

// TestChargesFlowIntoFairShare exercises the accounting bridge: every
// successful quota charge folds its CPU-seconds into the fair-share
// manager, so tenants who buy lots of computation see their effective
// priority sink like tenants who queue lots of jobs.
func TestChargesFlowIntoFairShare(t *testing.T) {
	clock := vtime.NewSimClock()
	fs := fairshare.NewManager(fairshare.Config{Clock: clock, HalfLife: -1})
	q := quota.NewService()
	q.SetRate("caltech", quota.Rate{CPUSecond: 0.01})
	q.Grant("alice", 1000)
	q.Grant("bob", 1000)
	q.Subscribe(func(c quota.Charge) {
		fs.RecordUsage(c.User, c.Site, c.CPUSeconds)
	})

	if _, err := q.Charge("alice", "caltech", 600, 0, clock.Now(), "analysis"); err != nil {
		t.Fatal(err)
	}
	if u := fs.Usage("alice"); math.Abs(u-600) > 1e-9 {
		t.Fatalf("alice usage = %v", u)
	}
	if u := fs.SiteUsage("alice", "caltech"); math.Abs(u-600) > 1e-9 {
		t.Fatalf("alice site usage = %v", u)
	}
	if ea, eb := fs.EffectivePriority("alice"), fs.EffectivePriority("bob"); ea >= eb {
		t.Fatalf("charged tenant not deprioritized: alice %v, bob %v", ea, eb)
	}
}
