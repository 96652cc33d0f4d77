// Million-job scale scenario: the tentpole benchmark for the event-driven
// engine. A deep backlog (10 waves of jobs per machine) over a six-figure
// machine count, with fair-share flows accruing lazily and the negotiation
// order maintained incrementally — every hot path is event-driven, so the
// engine's work is proportional to completions, not to the boundaries of a
// multi-month horizon at millisecond ticks.
//
// The benchmark runs the full scale (1M jobs, 100k machines) by default;
// set GAE_SCENARIO_SCALE=smoke for the scaled-down CI variant (100k jobs,
// 10k machines). The tests beside it gate what a completion costs by
// counting — events, wakes, passes, mallocs — and pin the placements, so
// neither depends on the host.
package repro_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/condor"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
	"repro/internal/telemetry"
)

// millionScale parameterizes the scenario. Needs are a base plus a
// per-job stagger of whole seconds, scaled by the machines' rate
// (1-load)·Mips, so every job lasts a whole number of seconds whatever the
// machines are: completion instants land on the grid at any tick that
// divides a second — which is also what makes the event count independent
// of the tick resolution, and lets legs with different machines be held to
// the same counts.
type millionScale struct {
	pools      int
	machines   int // per pool
	jobs       int // total
	tick       time.Duration
	mips, load float64 // of every machine; zero mips means 1 (idle Mips-1 machines by default)
	// steps, when set, cuts every machine's load into segments ending at
	// these offsets, each at the same level: boundaries the pools' usage
	// flows must be woken at, between rates that leave every job where the
	// constant load has it.
	steps      []time.Duration
	baseNeed   float64       // seconds on these machines; stagger adds (job % 509) whole seconds
	horizon    time.Duration // past the last completion of the deepest machine
	simSeconds float64
	// failEvery, when positive, marks every failEvery-th job but the last
	// with AttrFailAfter at its full need: the job fails where it would have
	// completed, so fault injection leaves every instant where it was.
	failEvery int
	// stepped runs the horizon as one RunFor call per tick instead of one
	// call: the fixed-tick loop whose placements the one call must
	// reproduce.
	stepped bool
}

var millionFull = millionScale{
	pools:      10,
	machines:   10_000,
	jobs:       1_000_000,
	tick:       time.Second / 512,
	baseNeed:   2_500_000, // ~29-day production jobs, 10 waves deep
	horizon:    25_006_000 * time.Second,
	simSeconds: 25_006_000,
}

var millionSmoke = millionScale{
	pools:      10,
	machines:   1_000,
	jobs:       100_000,
	tick:       time.Second / 128,
	baseNeed:   2_000,
	horizon:    26_000 * time.Second,
	simSeconds: 26_000,
}

// buildMillionScenario constructs the grid, pools (reporting to reg when
// it is non-nil), machines and the full backlog of submissions; the
// returned closure runs the simulation. The split lets the benchmark
// exclude setup (ad construction, matcher compilation, a million queue
// inserts) from the timed region.
func buildMillionScenario(tb testing.TB, sc millionScale, reg *telemetry.Registry) ([]*condor.Pool, func() *simgrid.Engine) {
	g := simgrid.NewGrid(sc.tick, 1)
	if sc.mips == 0 {
		sc.mips = 1
	}
	rate := (1 - sc.load) * sc.mips
	load := simgrid.ConstantLoad(sc.load)
	if len(sc.steps) > 0 {
		levels := make([]float64, len(sc.steps)+1)
		for i := range levels {
			levels[i] = sc.load
		}
		load = simgrid.StepLoad(g.Engine.Now(), sc.steps, levels)
	}
	pools := make([]*condor.Pool, sc.pools)
	for p := range pools {
		name := fmt.Sprintf("site%d", p)
		site := g.AddSite(name)
		pool := condor.NewPool(name, g, site)
		if reg != nil {
			pool.SetTelemetry(reg)
		}
		for i := 0; i < sc.machines; i++ {
			pool.AddMachine(site.AddNode(g.Engine, fmt.Sprintf("%s-n%05d", name, i), sc.mips, load), nil)
		}
		mgr := fairshare.NewManager(fairshare.Config{Clock: g.Engine.Clock(), HalfLife: time.Hour})
		pool.SetFairShare(mgr)
		pools[p] = pool
	}
	owners := []string{"atlas", "cms", "lhcb", "alice"}
	lastID, lastPool := 0, 0
	for j := 0; j < sc.jobs; j++ {
		need := (sc.baseNeed + float64(j%509)) * rate
		ad := classad.New().
			Set(condor.AttrOwner, owners[j%len(owners)]).
			Set(condor.AttrCpuSeconds, need).
			Set(condor.AttrPriority, j%2)
		if sc.failEvery > 0 && j%sc.failEvery == 0 && j != sc.jobs-1 {
			ad.Set(condor.AttrFailAfter, need)
		}
		id, err := pools[j%sc.pools].Submit(ad)
		if err != nil {
			tb.Fatalf("submit %d: %v", j, err)
		}
		lastID, lastPool = id, j%sc.pools
	}
	return pools, func() *simgrid.Engine {
		if sc.stepped {
			for n := sc.horizon / sc.tick; n > 0; n-- {
				g.Engine.RunFor(sc.tick)
			}
		} else {
			g.Engine.RunFor(sc.horizon)
		}
		// A scenario bug that strands the backlog would make the event
		// side look absurdly fast; make sure the last submission ran.
		if info, err := pools[lastPool].Job(lastID); err != nil || info.Status != condor.StatusCompleted {
			tb.Fatalf("last job %d: status %v err %v — backlog did not drain", lastID, info.Status, err)
		}
		return g.Engine
	}
}

func millionScaleFromEnv() millionScale {
	if os.Getenv("GAE_SCENARIO_SCALE") == "smoke" {
		return millionSmoke
	}
	return millionFull
}

func BenchmarkScenarioMillionJobs(b *testing.B) {
	sc := millionScaleFromEnv()
	var events int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, run := buildMillionScenario(b, sc, nil)
		b.StartTimer()
		events = run().Events()
	}
	b.ReportMetric(sc.simSeconds*float64(b.N)/b.Elapsed().Seconds(), "sim_s/wall_s")
	b.ReportMetric(float64(events), "events")
}

// TestMillionSmokeCounts gates what the million-job scenario costs at its
// smoke scale (100k jobs over 10k machines, a 26,000-second horizon), in
// counts that are functions of the workload and not of the host.
// A completion is one node event plus the pool wake that
// harvests it and starts the next job, and completions landing on one
// boundary share that wake; so events stay under 1.7 per job, wakes under
// 0.7, a pass matches 1.5 jobs or more, and no wake finds nothing to do.
// Any converted path regressing to per-tick or per-pass scanning — or the
// pool waking on its own placements again — breaks a ceiling outright.
//
// The counts are the workload's alone: the same jobs on machines of Mips
// 1.5 under a 0.3 load at a 10 ms tick (no power of two anywhere in the
// per-tick work), and the same jobs with every seventh failing by
// AttrFailAfter where it would have completed, cost exactly the events
// and wakes of the idle Mips-1 leg at 2⁻⁷ s. A load that steps costs one
// wake of each pool per step, where its running jobs' usage flows are
// re-rated, and nothing else: the loaded leg again with its load cut into
// three segments, off the whole seconds the completions land on, is the
// same counts plus one event and one wake per pool per boundary.
func TestMillionSmokeCounts(t *testing.T) {
	count := func(name string, sc millionScale) (events, wakes float64) {
		reg := telemetry.NewRegistry()
		_, run := buildMillionScenario(t, sc, reg)
		events = float64(run().Events())
		snap := reg.Snapshot()
		jobs := float64(sc.jobs)
		wakes = snap.Total("pool_wakes_total")
		passes := snap.Total("negotiation_passes_total")
		matches := snap.Total("negotiation_matches_total")
		idle := snap.Total("pool_idle_wakes_total")
		t.Logf("%s: jobs %v: events %v, wakes %v (idle %v), passes %v, matches %v", name, jobs, events, wakes, idle, passes, matches)
		if matches != jobs {
			t.Errorf("%s: matched %v jobs of %v", name, matches, jobs)
		}
		if events > 1.7*jobs {
			t.Errorf("%s: %v events for %v jobs, ceiling 1.7 per job", name, events, jobs)
		}
		if wakes > 0.7*jobs {
			t.Errorf("%s: %v pool wakes for %v jobs, ceiling 0.7 per job", name, wakes, jobs)
		}
		if passes == 0 || matches/passes < 1.5 {
			t.Errorf("%s: %v matches over %v passes = %.2f per pass, floor 1.5", name, matches, passes, matches/passes)
		}
		if idle != 0 {
			t.Errorf("%s: %v wakes harvested nothing, matched nothing and had nothing to wait for; want 0", name, idle)
		}
		return events, wakes
	}
	events, wakes := count("dyadic", millionSmoke)
	loaded, faulty := millionSmoke, millionSmoke
	loaded.tick, loaded.mips, loaded.load = 10*time.Millisecond, 1.5, 0.3
	faulty.failEvery = 7
	for name, sc := range map[string]millionScale{"10 ms tick, load 0.3, Mips 1.5": loaded, "every 7th job fault-injected": faulty} {
		if e, w := count(name, sc); e != events || w != wakes {
			t.Errorf("%s: %v events and %v wakes, the dyadic leg %v and %v — the counts depend on the load model or on AttrFailAfter", name, e, w, events, wakes)
		}
	}
	stepped := loaded
	stepped.steps = []time.Duration{5000*time.Second + 500*time.Millisecond, 15000*time.Second + 500*time.Millisecond}
	rerates := float64(stepped.pools * len(stepped.steps))
	if e, w := count("stepped load", stepped); e != events+rerates || w != wakes+rerates {
		t.Errorf("stepped load: %v events and %v wakes, want the constant legs' %v and %v plus %v: one wake per pool per step boundary", e, w, events, wakes, rerates)
	}
}

// goldenScale is a 2-pool x 200-machine x 4,000-job backlog, ten waves
// deep — small enough to also run one tick at a time in every test run.
var goldenScale = millionScale{
	pools:    2,
	machines: 200,
	jobs:     4_000,
	tick:     time.Second / 128,
	baseNeed: 600,
	horizon:  12_000 * time.Second,
}

// placementHash folds every job's (ID, node, start, completion) into one
// FNV-64a value, pool by pool in ID order.
func placementHash(tb testing.TB, pools []*condor.Pool) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, p := range pools {
		jobs, err := p.Jobs()
		if err != nil {
			tb.Fatal(err)
		}
		for _, j := range jobs {
			if j.Status != condor.StatusCompleted {
				tb.Fatalf("%s job %d is %v at the horizon, want completed", p.Name, j.ID, j.Status)
			}
			put(int64(j.ID))
			h.Write([]byte(j.Node))
			put(j.StartTime.UnixNano())
			put(j.CompletionTime.UnixNano())
		}
	}
	return h.Sum64()
}

// TestPlacementGolden pins where and when every job of the golden
// scenario ran — the half of a benchmark digest that an engine or pool
// optimisation must not move, kept apart from Engine.Events(), which such
// a change is free to lower. The value was computed on the commit before
// the completion cycle was reworked (echo wakes, by-value event queue,
// job fields cached at submit) and holds whether the horizon is one
// RunFor call or one per tick.
func TestPlacementGolden(t *testing.T) {
	const want = uint64(0x8d99e4b4a361b743)
	for _, stepped := range []bool{false, true} {
		sc := goldenScale
		sc.stepped = stepped
		pools, run := buildMillionScenario(t, sc, nil)
		run()
		if got := placementHash(t, pools); got != want {
			t.Errorf("stepped=%v: placement hash %#x, want %#x — a job moved or changed its start or completion time", stepped, got, want)
		}
	}
}

// runAllocsPerJob runs the golden scenario and returns what Engine.RunFor
// allocated per job, in mallocs and bytes. Submission is outside the
// measured region.
func runAllocsPerJob(t *testing.T) (mallocs, bytes float64) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	_, run := buildMillionScenario(t, goldenScale, nil)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	jobs := float64(goldenScale.jobs)
	return float64(m1.Mallocs-m0.Mallocs) / jobs, float64(m1.TotalAlloc-m0.TotalAlloc) / jobs
}

// TestCompletionMallocCeiling bounds what the run of the golden scenario
// allocates: at most 5 mallocs per job over Engine.RunFor (it was 14 with
// an allocation per queued event, a map per dirty-node drain and a task ID
// per start, 5.86 with a done closure per task, a completed-task list per
// node wake and sort keys per pass; a start is now the task and the usage
// flow, 2.25).
func TestCompletionMallocCeiling(t *testing.T) {
	perJob, _ := runAllocsPerJob(t)
	t.Logf("%.2f mallocs per job over RunFor", perJob)
	if perJob > 5 {
		t.Errorf("%.2f mallocs per job over RunFor, ceiling 5", perJob)
	}
}

// TestRunBytesPerJob bounds the bytes the run of the golden scenario
// allocates: at most 220 per job over Engine.RunFor (it was 305.5: a
// 96-byte task carrying its ID, a 96-byte usage flow, the done closure and
// per-pass sort keys; now an 80-byte task and a 64-byte flow are most of
// 179). No collection runs inside RunFor on a deep backlog, so these bytes
// are heap the run's high-water mark carries.
func TestRunBytesPerJob(t *testing.T) {
	_, perJob := runAllocsPerJob(t)
	t.Logf("%.1f bytes allocated per job over RunFor", perJob)
	if perJob > 220 {
		t.Errorf("%.1f bytes allocated per job over RunFor, ceiling 220", perJob)
	}
}

// bytesScale is a backlog a hundred waves deep over few machines, so that
// what the heap holds is the jobs: 20,000 of the scenario's three-attribute
// ads over 2 pools x 100 machines (the machines are about 20 bytes a job).
var bytesScale = millionScale{
	pools:    2,
	machines: 100,
	jobs:     20_000,
	tick:     time.Second / 128,
	baseNeed: 600,
	horizon:  112_000 * time.Second,
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestJobBytesCeiling bounds what the pool's record of one job weighs on
// the live heap: at most 402 bytes while it waits and 404 once it is
// terminal (measured 397 / 399). It was 1,496 / 1,611 with a hash table
// per ad, a 216-byte matcher, a map slot per job and a finished job
// keeping its task; 754 / 659 with a 288-byte job record, 72-byte
// attributes, a 64-byte ad header, a 96-byte matcher and a task-ID
// string; 527 / 465 with a 176-byte record, 56-byte attributes, a 48-byte
// header and a 64-byte matcher; 477 / 414 with 48-byte attributes; 413 /
// 414 with no matcher for a job whose ad has neither Requirements nor
// Rank, as these have; 408 / 410 while the record, the ad's header and
// its attributes were three allocations a job, before the pool carved
// them from its chunks (the 40-byte header no longer rounds up to the
// allocator's 48). The pool keeps every job it ever held, so these are
// the bytes a long-lived server grows by; a million queued jobs hold
// about 0.40 GB.
func TestJobBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what objects weigh")
	}
	before := heapAfterGC()
	pools, run := buildMillionScenario(t, bytesScale, nil)
	idle := float64(heapAfterGC()-before) / float64(bytesScale.jobs)
	run()
	terminal := float64(heapAfterGC()-before) / float64(bytesScale.jobs)
	runtime.KeepAlive(pools)
	t.Logf("%.0f bytes per idle job, %.0f per terminal job", idle, terminal)
	if idle > 402 {
		t.Errorf("%.0f bytes of heap per idle job, ceiling 402", idle)
	}
	if terminal > 404 {
		t.Errorf("%.0f bytes of heap per terminal job, ceiling 404", terminal)
	}
}

// TestSmallPoolBytes bounds what a pool holding four jobs carries on the
// live heap beyond an empty one: at most 4 KiB. The pool carves job
// records and ad copies from chunks that start at 1 KiB and double
// (internal/chunk), so a deployment's pools, which hold a handful of
// jobs, do not pay for a backlog's 16 KiB chunks: 3,404 bytes, of which
// the chunks are 2,944 (896 bytes of job records, 1,024 of ad headers and
// 1,024 of attributes). It was 1,802 bytes with an allocation a record,
// and 49,482 with chunks of 16 KiB from the first.
func TestSmallPoolBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what objects weigh")
	}
	const n = 200
	g := simgrid.NewGrid(time.Second, 1)
	pools := make([]*condor.Pool, n)
	for i := range pools {
		pools[i] = condor.NewPool(fmt.Sprint("s", i), g, g.AddSite(fmt.Sprint("s", i)))
	}
	ad := classad.New().Set(condor.AttrOwner, "atlas").Set(condor.AttrCpuSeconds, 600.0).Set(condor.AttrPriority, 1)
	before := heapAfterGC()
	for _, pool := range pools {
		for range 4 {
			if _, err := pool.Submit(ad); err != nil {
				t.Fatal(err)
			}
		}
	}
	perPool := float64(heapAfterGC()-before) / n
	runtime.KeepAlive(pools)
	t.Logf("%.0f bytes per pool of four jobs", perPool)
	if perPool > 4096 {
		t.Errorf("%.0f bytes of heap per pool of four jobs, ceiling 4096", perPool)
	}
}

// TestMachineBytesCeiling bounds what advertising one machine weighs on
// the live heap — the machine, its one ad, its matcher and the node's
// observer, the ad built inside the measurement — for an ad AddMachine
// makes (nil, as sim-backlog's and a deployment's machines are) and for a
// sim-match machine's (Arch, Memory, KFlops): the pool keeps them for the
// machine's whole life: 503 and 658 bytes, ceilings 520 and 688. They
// were 647 and 659 while AddMachine's attribute array grew from four slots
// to eight and Set boxed its values, and 943 and 1,402 bytes with the
// caller's ad watched through a mutation hook beside the pool's clone of
// it. An AddMachine of a nil ad makes six objects: the machine, the ad,
// its attribute array of five slots, the matcher, the observer and the
// lowered OpSys (ten with the array made twice and the three values Set
// boxed, Machine, Mips and the LoadAvg slot; fifteen with the hook and the
// clone).
func TestMachineBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what objects weigh")
	}
	const n = 4000
	archs := []string{"x86", "ppc64", "sparc"}
	for _, c := range []struct {
		name    string
		ad      func(i int) *classad.Ad
		ceiling float64
	}{
		{"nil ad", func(int) *classad.Ad { return nil }, 520},
		{"sim-match ad", func(i int) *classad.Ad {
			return classad.New().Set("Arch", archs[i%3]).Set("Memory", 1024<<(i%3)).Set("KFlops", 500+i%2000)
		}, 688},
	} {
		g := simgrid.NewGrid(time.Second, 1)
		site := g.AddSite("s")
		pool := condor.NewPool("s", g, site)
		nodes := make([]*simgrid.Node, n)
		for i := range nodes {
			nodes[i] = site.AddNode(g.Engine, fmt.Sprintf("n%05d", i), 1, simgrid.IdleLoad())
		}
		before := heapAfterGC()
		for i, node := range nodes {
			pool.AddMachine(node, c.ad(i))
		}
		perMachine := float64(heapAfterGC()-before) / n
		runtime.KeepAlive(pool)
		t.Logf("%s: %.0f bytes per machine", c.name, perMachine)
		if perMachine > c.ceiling {
			t.Errorf("%s: %.0f bytes of heap per machine, ceiling %.0f", c.name, perMachine, c.ceiling)
		}
	}

	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("s")
	pool := condor.NewPool("s", g, site)
	const runs = 1000
	nodes := make([]*simgrid.Node, runs+1)
	for i := range nodes {
		nodes[i] = site.AddNode(g.Engine, fmt.Sprintf("n%05d", i), 1, simgrid.IdleLoad())
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		pool.AddMachine(nodes[next], nil)
		next++
	})
	if allocs != 6 {
		t.Errorf("AddMachine(node, nil) allocates %v times, want 6", allocs)
	}
}

// TestMillionScenarioEventCountTickIndependent pins the tentpole's
// structural claim: the number of processed events depends on the
// workload, not on the tick resolution. A 128x finer grid
// must process (nearly) the same events — completions and the pool passes
// they trigger — rather than 128x more boundaries.
func TestMillionScenarioEventCountTickIndependent(t *testing.T) {
	run := func(tick time.Duration) int64 {
		sc := goldenScale
		sc.tick = tick
		_, runFn := buildMillionScenario(t, sc, nil)
		return runFn().Events()
	}
	coarse := run(time.Second)
	fine := run(time.Second / 128)
	if coarse == 0 || fine == 0 {
		t.Fatalf("vacuous run: events coarse=%d fine=%d", coarse, fine)
	}
	ratio := float64(fine) / float64(coarse)
	if ratio > 1.1 || ratio < 1/1.1 {
		t.Fatalf("event count depends on tick resolution: %d at 1s vs %d at 1/128s (ratio %.3f)",
			coarse, fine, ratio)
	}
}
