package experiments

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func loadScenario(t *testing.T, name string) workload.FairnessScenario {
	t.Helper()
	sc, err := workload.LoadScenario("../../testdata/scenarios/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func runFairness(t *testing.T, name string, fairShare bool) *FairnessResult {
	t.Helper()
	res, err := Fairness(loadScenario(t, name), fairShare)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func outcome(t *testing.T, r *FairnessResult, tenant string) FairnessOutcome {
	t.Helper()
	for _, o := range r.Outcomes {
		if o.Tenant == tenant {
			return o
		}
	}
	t.Fatalf("no outcome for %q in %+v", tenant, r.Outcomes)
	return FairnessOutcome{}
}

// TestFairnessEqualWeightsJain pins the headline acceptance number: with
// the fair-share subsystem on, equal-weight tenants end the bursty
// scenario with a Jain index of at least 0.9, while the ablation (static
// priority + FIFO) measurably does not.
func TestFairnessEqualWeightsJain(t *testing.T) {
	fair := runFairness(t, "bursty-tenant", true)
	if fair.JainIndex < 0.9 {
		t.Fatalf("fair-share Jain = %.4f, want ≥ 0.9\n%s", fair.JainIndex, fair.Summary())
	}
	ablation := runFairness(t, "bursty-tenant", false)
	if ablation.JainIndex >= fair.JainIndex-0.05 {
		t.Fatalf("ablation Jain %.4f not measurably worse than fair %.4f",
			ablation.JainIndex, fair.JainIndex)
	}
	// The bursty tenant monopolizes without arbitration.
	if m := outcome(t, ablation, "mallory"); m.CompletedJobs != m.SubmittedJobs {
		t.Fatalf("ablation mallory should clear its whole burst: %+v", m)
	}
}

// TestFairnessStarvationRecovery: with fair-share the meek tenant
// completes everything despite the priority flood; without it, the meek
// tenant is fully starved — the "measurable starvation" ablation.
func TestFairnessStarvationRecovery(t *testing.T) {
	fair := runFairness(t, "starvation-recovery", true)
	meek := outcome(t, fair, "meek")
	if meek.CompletedJobs != meek.SubmittedJobs || meek.FirstCompletionTick < 0 {
		t.Fatalf("meek not recovered: %+v\n%s", meek, fair.Summary())
	}
	if fair.MinShare <= 0.5 {
		t.Fatalf("fair min share = %.4f, want > 0.5", fair.MinShare)
	}

	ablation := runFairness(t, "starvation-recovery", false)
	starved := outcome(t, ablation, "meek")
	if starved.CompletedJobs != 0 || starved.FirstCompletionTick != -1 {
		t.Fatalf("ablation meek unexpectedly served: %+v", starved)
	}
	if ablation.MinShare != 0 {
		t.Fatalf("ablation min share = %.4f, want 0 (full starvation)", ablation.MinShare)
	}
}

// TestFairnessWeightedGroups: group allocations track group weights
// (atlas weight 3 vs cms weight 1), not head counts.
func TestFairnessWeightedGroups(t *testing.T) {
	fair := runFairness(t, "weighted-groups", true)
	atlas := outcome(t, fair, "atlas-a").CompletedCPU + outcome(t, fair, "atlas-b").CompletedCPU
	cms := outcome(t, fair, "cms-a").CompletedCPU
	if cms <= 0 {
		t.Fatalf("cms starved: %s", fair.Summary())
	}
	ratio := atlas / cms
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("atlas:cms = %.2f, want ≈3\n%s", ratio, fair.Summary())
	}
	if fair.JainIndex < 0.9 {
		t.Fatalf("weight-normalized Jain = %.4f", fair.JainIndex)
	}
	// Ablation ignores weights: the three tenants split evenly, so the
	// group ratio collapses toward 2 (two atlas tenants vs one cms).
	ablation := runFairness(t, "weighted-groups", false)
	aAtlas := outcome(t, ablation, "atlas-a").CompletedCPU + outcome(t, ablation, "atlas-b").CompletedCPU
	aCms := outcome(t, ablation, "cms-a").CompletedCPU
	if r := aAtlas / aCms; r > ratio-0.5 {
		t.Fatalf("ablation ratio %.2f should sit well below fair ratio %.2f", r, ratio)
	}
}

// TestFairnessFederatedFlocking: one fairness state spans the flocked
// pools, so the bursty tenant cannot monopolize overflow capacity.
func TestFairnessFederatedFlocking(t *testing.T) {
	fair := runFairness(t, "federated-flocking", true)
	if fair.JainIndex < 0.9 {
		t.Fatalf("federated Jain = %.4f, want ≥ 0.9\n%s", fair.JainIndex, fair.Summary())
	}
	ablation := runFairness(t, "federated-flocking", false)
	burstFair := outcome(t, fair, "dana").CompletedCPU
	burstAblation := outcome(t, ablation, "dana").CompletedCPU
	if burstFair >= burstAblation {
		t.Fatalf("fair-share did not curb the bursty tenant: %v vs %v", burstFair, burstAblation)
	}
}

// TestFairnessDeterministic: identical configurations produce
// byte-identical allocation histories — no wall-time dependence.
func TestFairnessDeterministic(t *testing.T) {
	a := runFairness(t, "starvation-recovery", true)
	b := runFairness(t, "starvation-recovery", true)
	if a.CSV() != b.CSV() {
		t.Fatal("same config produced different CSV histories")
	}
	if !strings.HasPrefix(a.CSV(), "# scenario=starvation-recovery") {
		t.Fatalf("CSV header = %q", a.CSV()[:60])
	}
}

// TestFairnessCSVShape: every sampled tick carries one row per tenant
// with the documented columns.
func TestFairnessCSVShape(t *testing.T) {
	sc := loadScenario(t, "bursty-tenant")
	sc.Ticks = 50
	res, err := Fairness(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(res.CSV()), "\n")
	// 1 comment + 1 header + samples at ticks 0,5,…,45,49 × 4 tenants.
	want := 2 + 11*4
	if len(lines) != want {
		t.Fatalf("CSV lines = %d, want %d", len(lines), want)
	}
	if got := strings.Count(lines[1], ","); got != 8 {
		t.Fatalf("header has %d commas: %q", got, lines[1])
	}
	for _, row := range lines[2:] {
		if strings.Count(row, ",") != 8 {
			t.Fatalf("row %q has wrong arity", row)
		}
	}
}

// TestFairnessHistoryAccountsForEveryJob holds the history's running and
// idle counts, tallied from pool events, to the arrivals: at every sampled
// tick a tenant's running, idle and completed jobs add up to what it
// submitted up to and including that tick.
func TestFairnessHistoryAccountsForEveryJob(t *testing.T) {
	for _, name := range []string{"bursty-tenant", "federated-flocking", "starvation-recovery", "weighted-groups"} {
		sc := loadScenario(t, name)
		for _, fairShare := range []bool{true, false} {
			res, err := Fairness(sc, fairShare)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.History {
				submitted := 0
				for _, tn := range sc.Tenants {
					if tn.Name == row.Tenant {
						for tick := 0; tick <= row.Tick; tick++ {
							submitted += tn.ArrivalsAt(tick)
						}
					}
				}
				if got := row.Running + row.Idle + row.CompletedJobs; got != submitted {
					t.Fatalf("%s fairshare=%v tick %d %s: %d running + %d idle + %d completed = %d, submitted %d",
						name, fairShare, row.Tick, row.Tenant, row.Running, row.Idle, row.CompletedJobs, got, submitted)
				}
			}
		}
	}
}
