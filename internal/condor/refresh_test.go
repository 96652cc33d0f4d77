package condor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/simgrid"
)

// randomStepLoad draws a load timeline: first until the first step, then
// up to steps changes on distinct whole seconds in (0, horizon), each to a
// level drawn from levels.
func randomStepLoad(rng *rand.Rand, epoch time.Time, horizon time.Duration, steps int, first float64, levels []float64) simgrid.Load {
	var at []time.Duration
	for range steps {
		at = append(at, time.Duration(1+rng.Intn(int(horizon/time.Second)-1))*time.Second)
	}
	slices.Sort(at)
	at = slices.Compact(at)
	vals := []float64{first}
	for range at {
		vals = append(vals, levels[rng.Intn(len(levels))])
	}
	return simgrid.StepLoad(epoch, at, vals)
}

// onRefresh makes every pass of p refresh through refresh, which calls
// p.refreshFree and looks at the pool around it, and match on what
// it returns.
func onRefresh(p *Pool, refresh func(now time.Time) freeStats) {
	p.negotiateOracle = func(now time.Time) int {
		if p.idleCount == 0 {
			return 0
		}
		return p.match(now, refresh(now))
	}
}

// countedLoad counts the Segment calls a load serves.
type countedLoad struct {
	simgrid.Load
	calls *int
}

func (c countedLoad) Segment(t time.Time) (float64, time.Time) {
	*c.calls++
	return c.Load.Segment(t)
}

// A pass visits the machines that entered the free set since the pass
// before, each once, and not one that stayed free: the work of a refresh
// follows what changed, not the size of the free set. A counted machine
// whose load steps ends that: while it is free, every pass walks every
// free machine, because time alone may change what it advertises.
func TestRefreshFollowsChanges(t *testing.T) {
	for _, stepped := range []bool{false, true} {
		g := simgrid.NewGrid(time.Second, 1)
		site := g.AddSite("s")
		p := NewPool("s", g, site)
		const n = 10
		calls := make([]int, n)
		for i := range n {
			// The first two machines take no job, so they stay free from
			// pass to pass; the first one's load steps in the stepped leg.
			var load simgrid.Load = simgrid.ConstantLoad(0.2)
			arch := "x86"
			if i < 2 {
				arch = "sparc"
				if stepped && i == 0 {
					load = simgrid.StepLoad(g.Engine.Now(), []time.Duration{time.Hour}, []float64{0.3, 0.1})
				}
			}
			node := site.AddNode(g.Engine, fmt.Sprintf("n%02d", i), 1, countedLoad{load, &calls[i]})
			p.AddMachine(node, classad.New().Set("Arch", arch))
		}
		wasFree := map[*machine]bool{}
		passes, stayed := 0, 0
		p.negotiateOracle = func(now time.Time) int {
			if p.idleCount == 0 {
				return 0
			}
			before := slices.Clone(calls)
			st := p.refreshFree(now)
			for i, m := range p.machines {
				want := 0
				switch {
				case m.freeIdx < 0 || m.node.TaskCount() > 0:
				case stepped || !wasFree[m]:
					want = 1
				default:
					stayed++
				}
				if got := calls[i] - before[i]; got != want {
					t.Fatalf("stepped %v, pass %d at %v: %s (free before %v) read its load %d times, want %d",
						stepped, passes, now, m.node.Name, wasFree[m], got, want)
				}
			}
			passes++
			matched := p.match(now, st)
			for _, m := range p.machines {
				wasFree[m] = m.freeIdx >= 0
			}
			return matched
		}
		for i := range 3 * n {
			ad := jobAd("alice", float64(10+i*7%40), 0).MustSetExpr(AttrRequirements, `TARGET.Arch == "x86"`)
			mustSubmit(t, p, ad)
		}
		g.Engine.RunFor(10 * time.Minute)
		if passes < 5 || !stepped && stayed == 0 {
			t.Fatalf("stepped %v: %d passes, %d visits of a machine that stayed free spared", stepped, passes, stayed)
		}
	}
}

// walkFree is what a refresh that visits every free machine finds: the
// offers and the earliest load boundary among them. It fails t where a
// free machine's LoadAvg or exclusion is not what that walk would leave.
func walkFree(t *testing.T, p *Pool, now time.Time) freeStats {
	t.Helper()
	var want freeStats
	for _, b := range p.freeBuckets {
		for _, m := range b {
			if m.node.TaskCount() > 0 {
				if m.skipFor != p {
					t.Fatalf("%s: occupied and not excluded", m.node.Name)
				}
				continue
			}
			if m.skipFor == p {
				t.Fatalf("%s: unoccupied and excluded", m.node.Name)
			}
			v, until := m.node.LoadSegment(now)
			if got := num(byName(m.ad, "LoadAvg"), -1); !m.loadAvgSet || m.loadAvg != v || got != v {
				t.Fatalf("%s: LoadAvg %v (cached %v), want %v", m.node.Name, got, m.loadAvg, v)
			}
			want.observe(until)
		}
	}
	return want
}

// The pool's own record of its free machines — the offer count, the
// earliest load boundary, each free machine's LoadAvg and exclusion — is
// after every refresh what a walk of every free machine finds, through
// seeded histories of everything that changes it: jobs started and
// finished, a foreign task placed and removed, a flocking peer claiming
// machines, a checkpoint-complete job spending an offer without a claim,
// and loads that step: each machine's timeline is drawn before the run,
// two steps somewhere in its first ten minutes.
func TestIncrementalRefreshMatchesFullWalk(t *testing.T) {
	levels := []float64{0, 0.1, 0.2, 0.3, 0.4}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := simgrid.NewGrid(time.Second, 1)
		p := NewPool("a", g, g.AddSite("a"))
		q := NewPool("b", g, g.AddSite("b"))
		const n = 12
		for i := range n {
			load := randomStepLoad(rng, g.Engine.Now(), 10*time.Minute, 2, float64(i%3)/10, levels)
			p.AddMachine(p.site.AddNode(g.Engine, fmt.Sprintf("a%02d", i), 1, load), classad.New().Set("Memory", 1024*(1+i%4)))
			if i < 3 {
				q.AddMachine(q.site.AddNode(g.Engine, fmt.Sprintf("b%02d", i), 1, nil), nil)
			}
		}
		q.EnableFlocking(p) // q's passes snapshot p's machines and claim some
		passes := 0
		onRefresh(p, func(now time.Time) freeStats {
			st := p.refreshFree(now)
			if want := walkFree(t, p, now); st != want || p.offers != want.avail {
				t.Fatalf("seed %d pass %d: refresh found %+v (offers %d), a walk %+v", seed, passes, st, p.offers, want)
			}
			passes++
			return st
		})
		var foreign []*simgrid.Task
		for range 150 {
			m := p.machines[rng.Intn(n)]
			switch rng.Intn(7) {
			case 0, 1, 2:
				ad := jobAd("alice", float64(5+rng.Intn(60)), 0)
				if rng.Intn(2) == 0 {
					ad.MustSetExpr(AttrRequirements, fmt.Sprintf("TARGET.Memory >= %d", 1024*(1+rng.Intn(4))))
				}
				mustSubmit(t, p, ad)
			case 3:
				mustSubmit(t, q, jobAd("bob", float64(5+rng.Intn(60)), 0))
			case 4:
				task := simgrid.NewTask(float64(1+rng.Intn(30)), nil)
				m.node.Place(task)
				foreign = append(foreign, task)
			case 5:
				if len(foreign) > 0 {
					k := rng.Intn(len(foreign))
					for _, x := range p.machines {
						x.node.Remove(foreign[k])
					}
					foreign = slices.Delete(foreign, k, k+1)
				}
			case 6:
				ad := jobAd("carol", 10, 0).Set(AttrCheckpoint, true)
				if _, err := p.SubmitCheckpointed(ad, 10); err != nil {
					t.Fatal(err)
				}
			}
			g.Engine.RunFor(time.Duration(1+rng.Intn(8)) * time.Second)
		}
		if passes < 20 {
			t.Fatalf("seed %d: %d passes", seed, passes)
		}
	}
}

// Submitting a job costs what the record of it is made of — the pool's
// clone of the ad, the job, and, for an ad with a Requirements or a Rank,
// its matcher and its Rank's class key — and not a parse or a lookup's
// garbage: measured on a sim-match job ad, whose Requirements pin Arch and
// whose Rank reads the target, and on an ad that constrains nothing, as
// sim-backlog's do.
func TestSubmitMallocCeiling(t *testing.T) {
	for _, c := range []struct {
		name    string
		ad      *classad.Ad
		ceiling float64
		what    string
	}{
		{"constrained", jobAd("alice", 30, 1).
			MustSetExpr(AttrRequirements, `TARGET.Arch == "x86" && TARGET.Memory >= 2048`).
			MustSetExpr(AttrRank, "TARGET.KFlops + TARGET.Memory/4"),
			5.1, "the ad's header and entries, the job, its matcher and class key"},
		{"unconstrained", jobAd("alice", 30, 1), 3.1, "the ad's header and entries, the job"},
	} {
		_, p := testPool(t, 1)
		got := testing.AllocsPerRun(1000, func() { mustSubmit(t, p, c.ad) })
		t.Logf("Submit (%s ad): %v allocations", c.name, got)
		if got > c.ceiling {
			t.Errorf("Submit (%s ad) allocates %v times, want <= %v (%s, and a share of the tables' growth)", c.name, got, c.ceiling, c.what)
		}
	}
}
