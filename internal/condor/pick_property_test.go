package condor

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/simgrid"
	"repro/internal/telemetry"
)

// The ordered pick must be invisible: over random pools and jobs,
// pickIndexedLocked returns exactly the machine an exhaustive bestCandidate
// scan of every free bucket returns, pass after pass, while machines are
// claimed, excluded, released and re-advertised under it.

var (
	propArchs  = []string{"x86", "ppc64", "sparc"}
	propKFlops = []int{500, 500, 800, 1200, 1200, 2000} // few steps: rank ties within and across buckets
	propMemory = []int{1024, 2048, 4096}

	propReqs = []string{
		"",
		"TARGET.Memory >= 2048",
		`TARGET.Arch == "x86" && TARGET.Memory >= 2048`,
		`TARGET.Arch == "ppc64"`,
		`TARGET.OpSys == "SOLARIS"`,
		`TARGET.OpSys == "LINUX" && TARGET.KFlops >= 800`,
		"TARGET.KFlops >= 1200 && TARGET.Memory >= 2048",
		"TARGET.KFlops < 0",
	}
	propRanks = []string{
		"", // no Rank
		"5",
		"-1.5",
		"TARGET.KFlops",
		"TARGET.KFlops + TARGET.Memory/4",
		"-(TARGET.Memory) * 2",
		"TARGET.KFlops / TARGET.NoSuchAttr",
		"MY.Boost * TARGET.KFlops",
		"TARGET.KFlops - MY.Boost * TARGET.Memory",
		"KFlops", // the job's own where it has one, else the machine's
		"Memory * Boost",
		"TARGET.Memory >= 2048 ? TARGET.KFlops : 0",
		"max(TARGET.KFlops, TARGET.Memory)",
	}
)

// exhaustivePickLocked is the oracle: every free bucket, scanned whole.
func exhaustivePickLocked(p *Pool, j *job) *machine {
	var best *machine
	bestRank := 0.0
	for _, b := range p.freeBuckets {
		best, bestRank = p.bestCandidate(j, b, best, bestRank)
	}
	return best
}

func propMachineAd(rng *rand.Rand) *classad.Ad {
	ad := classad.New().
		Set("Arch", propArchs[rng.Intn(len(propArchs))]).
		Set("Memory", propMemory[rng.Intn(len(propMemory))]).
		Set("KFlops", propKFlops[rng.Intn(len(propKFlops))])
	if rng.Intn(4) == 0 {
		ad.Set("OpSys", "SOLARIS")
	}
	return ad
}

func TestOrderedPickEqualsExhaustiveScan(t *testing.T) {
	var views, scans float64
	for seed := int64(1); seed <= 150; seed++ {
		v, s := runPickProperty(t, seed)
		views, scans = views+v, scans+s
	}
	// The property is vacuous unless both paths ran.
	if views == 0 || scans == 0 {
		t.Fatalf("ordered views built %v, exhaustive scans %v: both paths must be exercised", views, scans)
	}
}

func runPickProperty(t *testing.T, seed int64) (views, scans float64) {
	rng := rand.New(rand.NewSource(seed))
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("s")
	p := NewPool("p", g, site)
	reg := telemetry.NewRegistry()
	p.SetTelemetry(reg)

	// 3 archs over 1..90 machines: buckets land on both sides of
	// sortedPickThreshold, and drift across it as machines are claimed.
	n := 1 + rng.Intn(90)
	for i := 0; i < n; i++ {
		node := site.AddNode(g.Engine, fmt.Sprintf("n%03d", rng.Intn(1000)*100+i), 1, simgrid.IdleLoad())
		ad := propMachineAd(rng)
		switch {
		case i == 0 && seed%2 == 0:
			// Expression-valued ranked attribute: its value depends on
			// the job, so this machine's bucket cannot be pre-ordered.
			ad.MustSetExpr("KFlops", "1000 + TARGET.Boost * 300")
		case i == 1 && seed%3 == 0:
			ad.MustSetExpr("Arch", `TARGET.Boost > 0 ? "x86" : "sparc"`)
		}
		p.AddMachine(node, ad)
	}

	var jobs []*job
	for i := 0; i < 40; i++ {
		ad := jobAd("u", 10, 0).Set("Boost", rng.Intn(5)-2)
		if rng.Intn(3) == 0 {
			ad.Set("KFlops", 1)
		}
		if req := propReqs[rng.Intn(len(propReqs))]; req != "" {
			ad.MustSetExpr(AttrRequirements, req)
		}
		if rank := propRanks[rng.Intn(len(propRanks))]; rank != "" {
			ad.MustSetExpr(AttrRank, rank)
		}
		id := mustSubmit(t, p, ad)
		jobs = append(jobs, p.jobLocked(id))
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	now := g.Engine.Now()
	var claimed []*machine
	for pass := 0; pass < 6; pass++ {
		// Between passes: an external task occupies a node (excluded by
		// the refresh), advertised ads change, claimed machines return.
		if rng.Intn(2) == 0 {
			p.machines[rng.Intn(n)].node.Place(simgrid.NewTask("ext", 1e9, nil))
		}
		for k := rng.Intn(4); k > 0; k-- {
			m := p.machines[rng.Intn(n)]
			switch rng.Intn(3) {
			case 0:
				m.ad.Set("KFlops", propKFlops[rng.Intn(len(propKFlops))])
			case 1:
				m.ad.Set("Arch", propArchs[rng.Intn(len(propArchs))])
			default:
				m.ad.Set("Memory", propMemory[rng.Intn(len(propMemory))])
			}
		}
		rng.Shuffle(len(claimed), func(a, b int) { claimed[a], claimed[b] = claimed[b], claimed[a] })
		back := rng.Intn(len(claimed) + 1)
		for _, m := range claimed[:back] {
			p.addFreeLocked(m)
		}
		claimed = claimed[back:]

		p.refreshFreeLocked(now)
		rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
		for _, j := range jobs {
			want := exhaustivePickLocked(p, j)
			got := p.pickIndexedLocked(j)
			if got != want {
				name := func(m *machine) string {
					if m == nil {
						return "<none>"
					}
					return m.node.Name + " " + m.matchAd.String()
				}
				t.Fatalf("seed %d pass %d job %s:\n ordered pick %s\n exhaustive   %s",
					seed, pass, j.ad, name(got), name(want))
			}
			if got == nil {
				continue
			}
			switch rng.Intn(4) {
			case 0: // the offer is spent without a claim (checkpoint-complete job)
				got.skipFor = p
			case 1: // left free: the next job may pick it again
			default:
				p.claimMachineLocked(got)
				claimed = append(claimed, got)
			}
		}
	}
	snap := reg.Snapshot()
	return snap.Total("negotiation_view_builds_total"), snap.Total("negotiation_exhaustive_scans_total")
}

// TestLiveJobsWalksLiveJobsOnly pins the cost of the scheduler's backlog
// walk: after many submit+remove rounds it visits the jobs still in the
// pool, not every job the pool ever held.
func TestLiveJobsWalksLiveJobsOnly(t *testing.T) {
	g, p := testPool(t, 2)
	const rounds, keep = 1000, 5
	var live []int
	for i := 0; i < rounds; i++ {
		id := mustSubmit(t, p, jobAd("u", 1e6, 0))
		if i%(rounds/keep) == 0 {
			live = append(live, id)
			continue
		}
		if err := p.Remove(id); err != nil {
			t.Fatal(err)
		}
		g.Engine.Step()
	}
	got, err := p.LiveJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != keep {
		t.Fatalf("LiveJobs returned %d jobs, want the %d live ones", len(got), keep)
	}
	for i, j := range got {
		if j.ID != live[i] || j.Status.Terminal() {
			t.Errorf("LiveJobs[%d] = job %d (%v), want live job %d", i, j.ID, j.Status, live[i])
		}
	}
	all, _ := p.Jobs()
	p.mu.Lock()
	walked := len(p.active)
	p.mu.Unlock()
	if len(all) != rounds || walked > 128+2*keep {
		t.Fatalf("pool holds %d jobs and LiveJobs walks %d entries; want %d held and a walk bounded by the live count", len(all), walked, rounds)
	}
}
