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
// pickIndexed returns exactly the machine an exhaustive bestCandidate
// scan of every free bucket returns, pass after pass, while machines are
// claimed, excluded, released and join under it. The views live across
// the passes, so what one pass leaves in them is the next pass's input:
// after every pass each view a pass used is also held, entry by entry, to
// the bucket it orders (checkView). A view orders rank ties by
// an ordinal of the node name and a pick reuses the rank the view holds,
// so machines join with names that sort anywhere among the others, and
// jobs of one rank class spell their Rank differently.

var (
	propArchs  = []string{"x86", "ppc64", "sparc"}
	propKFlops = []int{500, 500, 800, 1200, 1200, 2000} // few steps: rank ties within and across buckets
	propMemory = []int{1024, 2048, 4096}
	propLoads  = []float64{0, 0.25, 0.5}

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
		"target.KFLOPS+TARGET.memory / 4", // the class above, spelled otherwise
		"-(TARGET.Memory) * 2",
		"TARGET.KFlops - TARGET.LoadAvg * 1000", // a class that reads what the refresh writes
		"TARGET.kflops-target.loadavg*1000",
		"TARGET.KFlops / TARGET.NoSuchAttr",
		"MY.Boost * TARGET.KFlops",
		"TARGET.KFlops - MY.Boost * TARGET.Memory",
		"KFlops", // the job's own where it has one, else the machine's
		"Memory * Boost",
		"TARGET.Memory >= 2048 ? TARGET.KFlops : 0",
		"max(TARGET.KFlops, TARGET.Memory)",
	}
)

// propExprKFlops makes KFlops, which most classes rank by, depend on the
// job: a bucket holding such a machine cannot be pre-ordered.
const propExprKFlops = "1000 + TARGET.Boost * 300"

// exhaustivePick is the oracle: every free bucket, scanned whole.
func exhaustivePick(p *Pool, j *job) *machine {
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

// pickPropertyTally sums, over the seeds, how often each thing the
// property is about actually happened.
type pickPropertyTally struct {
	builds, scans float64
	kept          int // views that outlived a pass
	rebuilt       int // views dropped and built again
	cleared       int // views that left exhaustive mode
	rebound       int // machines claimed, freed and claimed again between two passes
	joined        int // machines that joined the pool between two passes
	respelled     int // ranked views checked against jobs of two Rank spellings
}

// viewKey names one ordered view: an arch bucket as one rank class orders it.
type viewKey struct {
	class string
	arch  constraintKey
}

func TestOrderedPickEqualsExhaustiveScan(t *testing.T) {
	var sum pickPropertyTally
	for seed := int64(1); seed <= 150; seed++ {
		runPickProperty(t, seed, &sum)
	}
	// The property is vacuous unless both paths ran and views persisted
	// through everything that can stale them.
	if sum.builds == 0 || sum.scans == 0 || sum.kept == 0 || sum.rebuilt == 0 || sum.cleared == 0 || sum.rebound == 0 ||
		sum.joined == 0 || sum.respelled == 0 {
		t.Fatalf("not every path was exercised: %+v", sum)
	}
	t.Logf("%+v", sum)
}

func runPickProperty(t *testing.T, seed int64, sum *pickPropertyTally) {
	rng := rand.New(rand.NewSource(seed))
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("s")
	p := NewPool("p", g, site)
	reg := telemetry.NewRegistry()
	p.SetTelemetry(reg)

	// 3 archs over 1..90 machines: buckets land on both sides of
	// sortedPickThreshold, and drift across it as machines are claimed.
	// One pass a second: about one machine in ten has a load that steps
	// at one or two of the passes, drawn before the first.
	const passes = 10
	epoch := g.Engine.Now()
	n := 1 + rng.Intn(90)
	for i := 0; i < n; i++ {
		load := simgrid.IdleLoad()
		if rng.Intn(10) == 0 {
			load = randomStepLoad(rng, epoch, passes*time.Second, 1+rng.Intn(2), 0, propLoads)
		}
		node := site.AddNode(g.Engine, fmt.Sprintf("n%03d", rng.Intn(1000)*100+i), 1, load)
		ad := propMachineAd(rng)
		switch {
		case i == 0 && seed%2 == 0:
			ad.MustSetExpr("KFlops", propExprKFlops)
		case i == 1 && seed%3 == 0:
			ad.MustSetExpr("Arch", `TARGET.Boost > 0 ? "x86" : "sparc"`)
		}
		p.AddMachine(node, ad)
	}

	var jobs []*job
	rankSrc := map[*job]string{}
	for i := 0; i < 40; i++ {
		ad := jobAd("u", 10, 0).Set("Boost", rng.Intn(5)-2)
		if rng.Intn(3) == 0 {
			ad.Set("KFlops", 1)
		}
		if req := propReqs[rng.Intn(len(propReqs))]; req != "" {
			ad.MustSetExpr(AttrRequirements, req)
		}
		rank := propRanks[rng.Intn(len(propRanks))]
		if rank != "" {
			ad.MustSetExpr(AttrRank, rank)
		}
		id := mustSubmit(t, p, ad)
		jobs = append(jobs, p.job(id))
		rankSrc[p.job(id)] = rank
	}

	var claimed []*machine
	exhaustive := map[viewKey]bool{} // views the previous pass left in exhaustive mode
	everBuilt := map[viewKey]struct{}{}
	for pass := 0; pass < passes; pass++ {
		// Between passes: an external task occupies a node (excluded by
		// the refresh), loads step, claimed machines return, a free one is
		// claimed, freed and claimed again, and machines join under names
		// that sort before, among and after the others'.
		now := epoch.Add(time.Duration(pass) * time.Second)
		if rng.Intn(2) == 0 {
			p.machines[rng.Intn(len(p.machines))].node.Place(simgrid.NewTask(1e9, nil))
		}
		if pass > 0 && rng.Intn(2) == 0 {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				name := fmt.Sprintf("%s%05d.%d.%d", []string{"m", "n", "o"}[rng.Intn(3)], rng.Intn(100000), pass, k)
				p.AddMachine(site.AddNode(g.Engine, name, 1, simgrid.IdleLoad()), propMachineAd(rng))
				sum.joined++
			}
		}
		rng.Shuffle(len(claimed), func(a, b int) { claimed[a], claimed[b] = claimed[b], claimed[a] })
		back := rng.Intn(len(claimed) + 1)
		for _, m := range claimed[:back] {
			p.addFree(m)
		}
		claimed = claimed[back:]
		if m := p.machines[rng.Intn(len(p.machines))]; m.freeIdx >= 0 {
			m.owner.removeFree(m)
			p.addFree(m)
			if rng.Intn(2) == 0 {
				m.owner.removeFree(m)
				claimed = append(claimed, m)
				sum.rebound++
			}
		}

		p.refreshFree(now)
		sum.kept += viewsSyncedIn(p, p.pickGen-1)
		// A pass negotiates for the jobs queued at the time: a random part
		// of them, so rank classes come and go and their views with them,
		// and the first degenerate-class job differs from pass to pass.
		rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
		for _, j := range jobs[:1+rng.Intn(len(jobs))] {
			want := exhaustivePick(p, j)
			got := p.pickIndexed(j)
			if got != want {
				name := func(m *machine) string {
					if m == nil {
						return "<none>"
					}
					return m.node.Name + " " + m.ad.String()
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
				got.owner.removeFree(got)
				claimed = append(claimed, got)
			}
		}
		for class, cv := range p.pickViews {
			for arch, v := range cv.byArch {
				if v == nil || v.gen != p.pickGen {
					continue // unused this pass: the next refresh drops it
				}
				k := viewKey{class, constraintKey(arch)}
				everBuilt[k] = struct{}{}
				if checkView(t, p, k, v, jobs, rankSrc, fmt.Sprintf("seed %d pass %d", seed, pass)) {
					sum.respelled++
				}
				if exhaustive[k] && len(v.unranked) == 0 {
					sum.cleared++
				}
				exhaustive[k] = len(v.unranked) > 0
			}
		}
	}
	snap := reg.Snapshot()
	builds := snap.Total("negotiation_view_builds_total")
	sum.builds += builds
	sum.scans += snap.Total("negotiation_exhaustive_scans_total")
	sum.rebuilt += int(builds) - len(everBuilt)
}

// viewsSyncedIn counts the pool's views last synced in pass gen.
func viewsSyncedIn(p *Pool, gen uint64) int {
	n := 0
	for _, cv := range p.pickViews {
		for _, v := range cv.byArch {
			if v != nil && v.gen == gen {
				n++
			}
		}
	}
	return n
}

// checkView holds one synced view to the bucket it orders: its
// entries still free, together with its unranked machines, are the
// bucket's machines, each exactly once; the entries stand in (rank
// descending, name ascending) order, the names read through the entries'
// ordinals; and each carries the rank every job of the class gives its
// machine now — 0 in the degenerate class, whatever constants its jobs
// rank by. A job without a Matcher must have neither Requirements nor
// Rank, and is of the degenerate class. It reports whether the class's
// jobs spell their Rank in more than one way.
func checkView(t *testing.T, p *Pool, k viewKey, v *pickView, jobs []*job, rankSrc map[*job]string, at string) (respelled bool) {
	t.Helper()
	var rankers []*job
	spellings := map[string]bool{}
	for _, j := range jobs {
		if j.matcher == nil && (j.ad.Has(AttrRequirements) || j.ad.Has(AttrRank)) {
			t.Fatalf("%s: job %s constrains its match but has no Matcher", at, j.ad)
		}
		if class, ok := j.rankClass(); ok && class == k.class {
			rankers = append(rankers, j)
			spellings[rankSrc[j]] = true
		}
	}
	seen, tombs := map[*machine]bool{}, map[*machine]bool{}
	var prev *pickEntry
	var prevM *machine
	for i := range v.sorted {
		e := &v.sorted[i]
		m := p.byName[e.ord]
		if seen[m] || tombs[m] {
			t.Fatalf("%s view %q: %s is in the view twice", at, k, m.node.Name)
		}
		if m.freeIdx < 0 {
			// Claimed in this pass: a tombstone. The sync left none, so
			// there is at most one per machine and the next sync's
			// compaction keeps them from piling up.
			tombs[m] = true
			continue
		}
		seen[m] = true
		for _, j := range rankers {
			want := 0.0
			if k.class != "" {
				var ok bool
				if want, ok = j.matcher.TargetRank(m.matcher); !ok {
					t.Fatalf("%s view %q: %s is ranked but has no target rank", at, k, m.node.Name)
				}
				if own := j.matcher.Rank(m.matcher); own != want {
					t.Fatalf("%s view %q: job %s ranks %s %v, its target rank is %v", at, k, j.ad, m.node.Name, own, want)
				}
			}
			if e.rank != want {
				t.Fatalf("%s view %q: %s carries rank %v, its ad %s ranks %v for job %s", at, k, m.node.Name, e.rank, m.ad, want, j.ad)
			}
		}
		if prev != nil && (prev.rank < e.rank || prev.rank == e.rank && prevM.node.Name >= m.node.Name) {
			t.Fatalf("%s view %q: %s (%v) stands before %s (%v)", at, k, prevM.node.Name, prev.rank, m.node.Name, e.rank)
		}
		prev, prevM = e, m
	}
	for _, m := range v.unranked {
		if m.freeIdx < 0 {
			continue
		}
		if _, ok := rankers[0].matcher.TargetRank(m.matcher); ok || seen[m] {
			t.Fatalf("%s view %q: %s is unranked but rankable, or listed twice", at, k, m.node.Name)
		}
		seen[m] = true
	}
	for _, m := range p.freeBuckets[k.arch] {
		if !seen[m] {
			t.Fatalf("%s view %q: free machine %s is missing", at, k, m.node.Name)
		}
		delete(seen, m)
	}
	if len(seen) > 0 {
		t.Fatalf("%s view %q: holds %d machines that are not free in bucket %d", at, k, len(seen), k.arch)
	}
	return k.class != "" && len(spellings) > 1
}

// TestRankEvalsFollowChanges is the count gate on what keeping the views
// costs, at the shape of the benchmark's sim-match workload in small: 300
// machines of two archs, jobs of two rank classes (one of them degenerate)
// arriving in waves, and a few stragglers between waves. Counts are
// functions of the workload, not of the host: a pass evaluates Rank at most
// once per view for each machine that entered the free set or changed its
// LoadAvg since the pass before, never for a machine that merely stayed
// free, and not at all in a pass before which nothing changed; and no view
// is built twice, since every pass queues every class. A view re-ranked
// per pass — the rebuild this replaced — would spend ~150 evaluations per
// view in every pass.
func TestRankEvalsFollowChanges(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("s")
	p := NewPool("p", g, site)
	reg := telemetry.NewRegistry()
	p.SetTelemetry(reg)
	const machines = 300
	for i := 0; i < machines; i++ {
		node := site.AddNode(g.Engine, fmt.Sprintf("n%04d", i), 1, simgrid.IdleLoad())
		p.AddMachine(node, classad.New().
			Set("Arch", propArchs[i%2]).
			Set("Memory", propMemory[i/2%len(propMemory)]).
			Set("KFlops", 500+i*7%machines))
	}
	submit := func(n, salt int) {
		for i := 0; i < n; i++ {
			ad := jobAd("u", float64(20+10*((i+salt)%3)), 0)
			if i%3 == 0 {
				ad.MustSetExpr(AttrRequirements, fmt.Sprintf("TARGET.Arch == %q && TARGET.Memory >= 2048", propArchs[(i+salt)%2]))
			}
			if i%2 == 0 {
				ad.MustSetExpr(AttrRank, "TARGET.KFlops + TARGET.Memory/4")
			}
			mustSubmit(t, p, ad)
		}
	}
	const waves, gap = 8, 10
	for w := 0; w < waves; w++ {
		g.Engine.Schedule(time.Duration(w*gap)*time.Second, func(time.Time) { submit(24, w) })
		// Stragglers land between two boundaries on which jobs complete
		// (needs are multiples of the gap): their pass finds nothing new.
		g.Engine.Schedule(time.Duration(w*gap+3)*time.Second, func(time.Time) { submit(4, w) })
	}
	count := func(name string) int { return int(reg.Snapshot().Total(name)) }
	var passes, evals, quiet, spent int
	for s := 0; s < (waves+6)*gap; s++ {
		g.Engine.RunFor(time.Second)
		ranPass := count("negotiation_passes_total") - passes
		passes += ranPass
		d := count("negotiation_rank_evals_total") - evals
		evals += d
		if ranPass == 0 {
			if d != 0 {
				t.Fatalf("t=%ds: %d rank evaluations outside a pass", s, d)
			}
			continue
		}
		changed, views := len(p.changed), viewsSyncedIn(p, p.pickGen)
		if d > changed*views {
			t.Errorf("t=%ds: %d rank evaluations in a pass that saw %d machines change under %d views", s, d, changed, views)
		}
		if changed == 0 && views > 0 {
			quiet++
		}
		if passes > 1 {
			spent += d
		}
	}
	builds, matches := count("negotiation_view_builds_total"), count("negotiation_matches_total")
	t.Logf("passes %d (%d with nothing changed), matches %d, view builds %d, rank evaluations %d (%d after the first pass)",
		passes, quiet, matches, builds, evals, spent)
	if matches != waves*(24+4) {
		t.Errorf("matched %d jobs of %d", matches, waves*(24+4))
	}
	if quiet == 0 {
		t.Error("no pass ran with nothing changed since the pass before: the zero-evaluation case went unexercised")
	}
	// Two archs, two classes, built in the first pass and kept.
	if builds != 4 {
		t.Errorf("%d views built, want 4 built once", builds)
	}
	// Only the classed views evaluate Rank: once per machine up front, then
	// once per machine coming back.
	if evals < machines || spent > matches {
		t.Errorf("%d rank evaluations (%d after the first pass): want every machine ranked once up front and at most one per match after", evals, spent)
	}
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
		g.Engine.RunFor(time.Second)
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
	walked := len(p.active)
	if len(all) != rounds || walked > 128+2*keep {
		t.Fatalf("pool holds %d jobs and LiveJobs walks %d entries; want %d held and a walk bounded by the live count", len(all), walked, rounds)
	}
}

// A job whose ad has neither Requirements nor Rank holds no Matcher, and a
// machine's Requirements alone decide whether it takes the job: one that
// rejects it leaves the job idle, one that accepts it runs it, and among
// twenty machines (an ordered view's bucket) only the one that accepts it
// gets it.
func TestUnconstrainedJobMeetsMachineRequirements(t *testing.T) {
	for _, c := range []struct {
		name     string
		machines int
		want     string // the node the job runs on, "" for none
	}{
		{"rejecting", 1, ""},
		{"accepting", 1, "n00"},
		{"one of twenty accepting", 20, "n13"},
	} {
		g := simgrid.NewGrid(time.Second, 1)
		site := g.AddSite("siteA")
		p := NewPool("poolA", g, site)
		for i := range c.machines {
			name := fmt.Sprintf("n%02d", i)
			req := `TARGET.Owner == "bob"`
			if name == c.want {
				req = `TARGET.Owner == "alice" && TARGET.CpuSeconds < 100`
			}
			p.AddMachine(site.AddNode(g.Engine, name, 1, simgrid.IdleLoad()), classad.New().MustSetExpr(AttrRequirements, req))
		}
		id := mustSubmit(t, p, jobAd("alice", 30, 0))
		if p.job(id).matcher != nil {
			t.Fatalf("%s: a job with neither Requirements nor Rank holds a Matcher", c.name)
		}
		g.Engine.RunFor(2 * time.Second)
		got := mustJob(t, p, id)
		if got.Node != c.want || (got.Status == StatusRunning) != (c.want != "") {
			t.Errorf("%s: job is %v on %q, want it running on %q", c.name, got.Status, got.Node, c.want)
		}
	}
}
