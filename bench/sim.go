package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/classad"
	"repro/internal/condor"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
	"repro/internal/telemetry"
)

// simSize sizes one simulator workload. The two full sizes are the
// benchmark; tests use the tiny ones.
type simSize struct {
	pools    int
	machines int // per pool
	jobs     int
	tick     time.Duration
	horizon  time.Duration
	// waves > 0 makes the jobs arrive in that many equal waves, waveGap
	// apart, from callbacks inside Engine.RunFor; 0 submits them all
	// while the grid is built.
	waves   int
	waveGap time.Duration
	// perSecond is how many build-and-run cycles a run makes per second
	// of --seconds, sized so that a run takes about that long on the box
	// the benchmark was defined on; minCycles is the least it makes.
	perSecond float64
	minCycles int
}

// cycles is the fixed amount of work a run of the given length does.
func (z simSize) cycles(seconds float64) int {
	if n := int(seconds * z.perSecond); n > z.minCycles {
		return n
	}
	return z.minCycles
}

var (
	// backlogFull is the committed millionSmoke shape: whole-second
	// needs on idle Mips-1 machines at a 2⁻⁷ s tick keep the engine in
	// its closed-form regime, and the horizon clears ten waves of the
	// longest job.
	backlogFull = simSize{pools: 10, machines: 1000, jobs: 100_000, tick: time.Second / 128, horizon: 26_000 * time.Second, perSecond: 0.6, minCycles: 8}
	backlogTiny = simSize{pools: 2, machines: 20, jobs: 400, tick: time.Second / 128, horizon: 26_000 * time.Second, minCycles: 3}

	matchFull = simSize{pools: 2, machines: 1000, jobs: 9000, tick: time.Second, horizon: 3000 * time.Second, waves: 60, waveGap: 10 * time.Second, perSecond: 0.9, minCycles: 8}
	matchTiny = simSize{pools: 2, machines: 30, jobs: 240, tick: time.Second, horizon: 3000 * time.Second, waves: 6, waveGap: 10 * time.Second, minCycles: 3}
)

// machineSpec and jobSpec are the generated inputs. They are drawn once
// per run from the seed; every repetition rebuilds the same grid from
// them, which is what makes the repetitions' digests comparable.
type machineSpec struct {
	arch   string
	memory int
	kflops int
	mips   float64
	load   float64
}

type jobSpec struct {
	pool  int
	owner string
	need  float64
	prio  int
	req   string // Requirements source, "" for none
	rank  string // Rank source, "" for none
	wave  int
}

type simInputs struct {
	name     string
	size     simSize
	machines [][]machineSpec // per pool; nil means idle Mips-1 x86 machines
	jobs     []jobSpec
	owners   []string
	// shared selects one fair-share manager for all pools (sim-match)
	// over one per pool (sim-backlog, as in the committed scenario).
	shared bool
}

var archs = []string{"x86", "x86_64", "ppc64", "sparc"}
var memories = []int{1024, 2048, 4096, 8192, 16384}

// The generators below build the same multiset of machines and jobs for
// every seed and let the seed draw only their order (which pool and wave
// a job lands in, which node name a machine gets). Every seed then asks
// the simulator for the same total work, and what differs between two
// runs is the program's speed, not the luck of the draw.

// genBacklog draws the sim-backlog inputs: every job is matchable by
// every machine, ranks are constant, and all jobs are queued up front.
func genBacklog(seed int64, size simSize) *simInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &simInputs{name: "sim-backlog", size: size, owners: []string{"atlas", "cms", "lhcb", "alice"}}
	in.jobs = make([]jobSpec, size.jobs)
	for i := range in.jobs {
		in.jobs[i] = jobSpec{
			owner: in.owners[i%len(in.owners)],
			need:  float64(2000 + i/8%509),
			prio:  i / 4 % 2,
		}
	}
	in.place(rng)
	return in
}

// place shuffles the jobs and deals them to pools and waves in order.
func (in *simInputs) place(rng *rand.Rand) {
	rng.Shuffle(len(in.jobs), func(i, j int) { in.jobs[i], in.jobs[j] = in.jobs[j], in.jobs[i] })
	perWave := len(in.jobs)
	if in.size.waves > 0 {
		perWave = (len(in.jobs) + in.size.waves - 1) / in.size.waves
	}
	for j := range in.jobs {
		in.jobs[j].pool = j % in.size.pools
		in.jobs[j].wave = j / perWave
	}
}

// genMatch draws the sim-match inputs: heterogeneous machines, and jobs
// whose Requirements and Rank make the negotiator evaluate ClassAd
// expressions against every free candidate.
func genMatch(seed int64, size simSize) *simInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &simInputs{
		name: "sim-match", size: size, shared: true,
		owners: []string{"atlas", "cms", "lhcb", "alice", "babar", "cdf", "dzero"},
	}
	in.machines = make([][]machineSpec, size.pools)
	for p := range in.machines {
		ms := make([]machineSpec, size.machines)
		for i := range ms {
			ms[i] = machineSpec{
				arch:   archs[i%len(archs)],
				memory: memories[i/4%len(memories)],
				// 7919 is prime to every machine count in use, so KFlops
				// takes every step of its range once, spread evenly over
				// the other attributes' combinations.
				kflops: 500_000 + i*7919%size.machines*1_500_000/size.machines,
				mips:   float64(1 + i/20%3),
				load:   float64(i/60%5) / 10,
			}
		}
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		in.machines[p] = ms
	}
	in.jobs = make([]jobSpec, size.jobs)
	for i := range in.jobs {
		js := jobSpec{
			owner: in.owners[i%len(in.owners)],
			need:  float64(20 + i/7%101),
			prio:  i % 3,
		}
		// Memory and KFlops thresholds stay in the lower part of the
		// machines' range, so every job has candidates in every pool.
		mem := memories[i/9%3]
		switch i / 3 % 3 {
		case 0:
			js.req = fmt.Sprintf("TARGET.Memory >= %d", mem)
		case 1:
			js.req = fmt.Sprintf("TARGET.Arch == %q && TARGET.Memory >= %d", archs[i/27%len(archs)], mem)
		default:
			js.req = fmt.Sprintf("TARGET.KFlops >= %d && TARGET.Memory >= %d", 500_000+i/27%750*1000, mem)
		}
		if i/2%2 == 0 {
			js.rank = "TARGET.KFlops + TARGET.Memory/4"
		}
		in.jobs[i] = js
	}
	in.place(rng)
	return in
}

// hash folds the generated inputs into one number, so tests can tell
// that a seed reproduces its inputs and another seed does not.
func (in *simInputs) hash() uint64 {
	h := fnv.New64a()
	for _, ms := range in.machines {
		for _, m := range ms {
			fmt.Fprintf(h, "%s/%d/%d/%g/%g;", m.arch, m.memory, m.kflops, m.mips, m.load)
		}
	}
	for _, j := range in.jobs {
		fmt.Fprintf(h, "%d/%s/%g/%d/%s/%s/%d;", j.pool, j.owner, j.need, j.prio, j.req, j.rank, j.wave)
	}
	return h.Sum64()
}

// machineAd is the ad a generated machine advertises.
func (m machineSpec) ad() *classad.Ad {
	return classad.New().Set("Arch", m.arch).Set("Memory", m.memory).Set("KFlops", m.kflops)
}

// ad builds the job's ClassAd the way a submitter would.
func (j jobSpec) ad() *classad.Ad {
	ad := classad.New().
		Set(condor.AttrOwner, j.owner).
		Set(condor.AttrCpuSeconds, j.need).
		Set(condor.AttrPriority, j.prio)
	if j.req != "" {
		ad.MustSetExpr(condor.AttrRequirements, j.req)
	}
	if j.rank != "" {
		ad.MustSetExpr(condor.AttrRank, j.rank)
	}
	return ad
}

// simRun is one built grid, ready for one Engine.RunFor.
type simRun struct {
	in    *simInputs
	grid  *simgrid.Grid
	pools []*condor.Pool
	rec   *recorder // nil when untraced
	// repSpan / runSpan parent the spans of this repetition.
	repSpan, runSpan int64
	submitErr        error
}

// build constructs the grid, its pools and machines, and submits (or
// schedules the submission of) every job. With rec and reg nil nothing
// is traced and the pools carry no telemetry.
func (in *simInputs) build(rec *recorder, reg *telemetry.Registry) (*simRun, error) {
	r := &simRun{in: in, rec: rec}
	var buildSpan int64
	if rec != nil {
		r.repSpan = rec.begin(0, 0, "sim.rep")
		buildSpan = rec.begin(r.repSpan, 0, "simgrid.build")
	}
	g := simgrid.NewGrid(in.size.tick, 1)
	r.grid = g
	var mgr *fairshare.Manager
	if in.shared {
		mgr = fairshare.NewManager(fairshare.Config{Clock: g.Engine.Clock(), HalfLife: time.Hour})
	}
	r.pools = make([]*condor.Pool, in.size.pools)
	for p := range r.pools {
		name := fmt.Sprintf("site%d", p)
		site := g.AddSite(name)
		pool := condor.NewPool(name, g, site)
		if reg != nil {
			pool.SetTelemetry(reg)
		}
		for i := 0; i < in.size.machines; i++ {
			node := fmt.Sprintf("%s-n%05d", name, i)
			if in.machines == nil {
				pool.AddMachine(site.AddNode(g.Engine, node, 1, simgrid.IdleLoad()), nil)
				continue
			}
			m := in.machines[p][i]
			pool.AddMachine(site.AddNode(g.Engine, node, m.mips, simgrid.ConstantLoad(m.load)), m.ad())
		}
		if in.shared {
			pool.SetFairShare(mgr)
		} else {
			pool.SetFairShare(fairshare.NewManager(fairshare.Config{Clock: g.Engine.Clock(), HalfLife: time.Hour}))
		}
		r.pools[p] = pool
	}
	if in.size.waves == 0 {
		for _, j := range in.jobs {
			r.submit(j, buildSpan)
		}
	} else {
		perWave := (len(in.jobs) + in.size.waves - 1) / in.size.waves
		for w := 0; w < in.size.waves; w++ {
			lo, hi := w*perWave, (w+1)*perWave
			if hi > len(in.jobs) {
				hi = len(in.jobs)
			}
			wave := in.jobs[lo:hi]
			g.Engine.Schedule(time.Duration(w)*in.size.waveGap, func(time.Time) {
				for _, j := range wave {
					r.submit(j, r.runSpan)
				}
			})
		}
	}
	if rec != nil {
		rec.finish(buildSpan)
	}
	return r, r.submitErr
}

func (r *simRun) submit(j jobSpec, parent int64) {
	ad := j.ad()
	var t0 int64
	if r.rec != nil {
		t0 = r.rec.now()
	}
	_, err := r.pools[j.pool].Submit(ad)
	if r.rec != nil {
		r.rec.add(parent, 0, "condor.submit", t0, r.rec.now())
	}
	if err != nil && r.submitErr == nil {
		r.submitErr = fmt.Errorf("%s: submit: %w", r.in.name, err)
	}
}

// run advances the grid over the workload's horizon and returns the wall
// time Engine.RunFor took. The collector runs first, so a repetition
// does not pay for the garbage of the one before it.
func (r *simRun) run() (time.Duration, error) {
	runtime.GC()
	if r.rec != nil {
		r.runSpan = r.rec.begin(r.repSpan, 0, "simgrid.run")
	}
	t0 := time.Now()
	r.grid.Engine.RunFor(r.in.size.horizon)
	wall := time.Since(t0)
	if r.rec != nil {
		r.rec.finish(r.runSpan)
		r.rec.finish(r.repSpan)
	}
	return wall, r.submitErr
}

// digest checks that every job completed and folds the pools' final job
// tables and the engine's event count into one FNV-64 value. It is the
// repetition's output: same inputs must give the same digest.
func (r *simRun) digest() (sum uint64, events int64, err error) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	total := 0
	for _, p := range r.pools {
		jobs, jerr := p.Jobs()
		if jerr != nil {
			return 0, 0, fmt.Errorf("%s: %s: %w", r.in.name, p.Name, jerr)
		}
		for _, j := range jobs {
			if j.Status != condor.StatusCompleted {
				return 0, 0, fmt.Errorf("%s: job %d at %s is %v at the horizon, want completed", r.in.name, j.ID, p.Name, j.Status)
			}
			put(int64(j.ID))
			h.Write([]byte(j.Node))
			put(j.StartTime.UnixNano())
			put(j.CompletionTime.UnixNano())
		}
		total += len(jobs)
	}
	if total != len(r.in.jobs) {
		return 0, 0, fmt.Errorf("%s: pools hold %d jobs, submitted %d", r.in.name, total, len(r.in.jobs))
	}
	events = r.grid.Engine.Events()
	put(events)
	return h.Sum64(), events, nil
}

// simResult is what a simulator workload's untraced run measured.
type simResult struct {
	setups    samples // seconds to build a grid, run it once and check it
	rates     samples // jobs per wall second of Engine.RunFor
	timed     time.Duration
	digest    uint64
	events    int64
	attempted int // jobs over all cycles
	failed    int
}

// runSim is the untraced run: a fixed number of cycles, each building a
// fresh grid, running it over the horizon and checking its digest, with
// the calibration kernel timed before and after. Every cycle is one
// sample of set-up time (build a grid and run it once: what it takes
// before a first result exists) and, but for the first, whose run grows
// the heap and pays the lazy set-up, one sample of the run rate. A cycle
// whose digest differs from the first one's counts all its jobs as
// failed.
func runSim(in *simInputs, cycles int, cal *calibrator) (*simResult, error) {
	res := &simResult{}
	start := time.Now()
	// The collector runs before the kernel is timed: the kernel must not
	// share the processors with the sweep of the previous cycle's grid.
	runtime.GC()
	before := cal.sample()
	for c := 0; c < cycles; c++ {
		t0 := time.Now()
		r, err := in.build(nil, nil)
		if err != nil {
			return nil, err
		}
		wall, err := r.run()
		if err != nil {
			return nil, err
		}
		sum, events, err := r.digest()
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0).Seconds()
		runtime.GC()
		after := cal.sample()
		slow := (before + after) / 2
		before = after
		res.setups.addSeconds(setup, slow)
		res.attempted += len(in.jobs)
		if c == 0 {
			res.digest, res.events = sum, events
			continue
		}
		if sum != res.digest || events != res.events {
			res.failed += len(in.jobs)
		}
		res.rates.addRate(float64(len(in.jobs))/wall.Seconds(), slow)
	}
	res.timed = time.Since(start)
	return res, nil
}

// gcCPUSeconds reads the collector's cumulative CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// tracePairs is how many untraced and traced cycles the traced run makes
// in turn; trace.overhead_share compares their median run times, and the
// last traced cycle gives the spans and counters.
const tracePairs = 3

// traceSim is the traced run of a simulator workload: after one warm-up
// cycle, tracePairs times an untraced cycle and then one with spans and
// pool telemetry, and direct calls into classad and fairshare on inputs
// drawn from the workload's own generator.
func traceSim(in *simInputs, rep *report) ([]span, error) {
	var (
		r              *simRun
		rec            *recorder
		reg            *telemetry.Registry
		plain, traced  []float64
		m0, m1         runtime.MemStats
		gc0, gc1, wall float64
	)
	for i := 0; i < 1+2*tracePairs; i++ {
		rec, reg = nil, nil
		if i > 0 && i%2 == 0 {
			rec, reg = newRecorder(), telemetry.NewRegistry()
		}
		var err error
		if r, err = in.build(rec, reg); err != nil {
			return nil, err
		}
		runtime.GC()
		runtime.ReadMemStats(&m0)
		gc0 = gcCPUSeconds()
		d, err := r.run()
		if err != nil {
			return nil, err
		}
		gc1 = gcCPUSeconds()
		runtime.ReadMemStats(&m1)
		switch {
		case rec != nil:
			wall = d.Seconds()
			traced = append(traced, wall)
		case i > 0:
			plain = append(plain, d.Seconds())
		}
	}

	q0 := time.Now()
	for _, p := range r.pools {
		if _, err := p.Jobs(); err != nil {
			return nil, err
		}
	}
	jobsQuery := time.Since(q0)
	if _, _, err := r.digest(); err != nil {
		return nil, err
	}

	spans := rec.all()
	tree := buildTree(spans)
	dur := tree.durByName()
	self, count := tree.selfByName()
	snap := reg.Snapshot()
	var busy float64
	for _, m := range snap.Family("negotiation_pass_seconds") {
		busy += m.Sum
	}
	passes := snap.Total("negotiation_passes_total")
	matches := snap.Total("negotiation_matches_total")
	events := float64(r.grid.Engine.Events())
	runS := float64(dur["simgrid.run"]) / 1e9

	rep.set("simgrid.build_s", float64(dur["simgrid.build"])/1e9)
	rep.set("simgrid.run_s", runS)
	rep.set("simgrid.events", events)
	rep.set("simgrid.ns_per_event", float64(dur["simgrid.run"])/events)
	rep.set("simgrid.self_s", runS-busy)
	rep.set("simgrid.mallocs_per_job", float64(m1.Mallocs-m0.Mallocs)/float64(len(in.jobs)))
	rep.set("simgrid.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	rep.set("simgrid.gc_cpu_share", (gc1-gc0)/(wall*float64(runtime.GOMAXPROCS(0))))
	rep.set("condor.submit_us", float64(dur["condor.submit"])/1e3/float64(count["condor.submit"]))
	rep.set("condor.wakes", snap.Total("pool_wakes_total"))
	rep.set("condor.passes", passes)
	rep.set("condor.matches", matches)
	rep.set("condor.negotiate_busy_s", busy)
	rep.set("condor.matches_per_pass", matches/passes)
	rep.set("condor.jobs_query_ms", jobsQuery.Seconds()*1e3)
	rep.set("trace.overhead_share", (median(traced)-median(plain))/median(plain))
	// What the rows measured on their own (the build, the submissions
	// inside the run and the pools' negotiation passes) explain of the
	// cycle; the rest is the engine's event loop, which has no row but
	// the derived simgrid.self_s.
	explained := float64(dur["sim.rep"]-self["sim.rep"]-self["simgrid.run"])/1e9 + busy
	rep.set("trace.coverage", explained/(float64(dur["sim.rep"])/1e9))

	microClassad(in, rep)
	microFairshare(in, rep)
	return spans, nil
}

// microPairs is how many job–machine pairs the direct ClassAd timings
// cover.
const microPairs = 10_000

// microClassad times ad compilation, Match and Rank directly, on job and
// machine ads from the workload's generator.
func microClassad(in *simInputs, rep *report) {
	rng := rand.New(rand.NewSource(int64(in.hash())))
	n := len(in.jobs)
	if n > microPairs {
		n = microPairs
	}
	jobs := make([]*classad.Matcher, n)
	t0 := time.Now()
	for i := range jobs {
		jobs[i] = classad.NewMatcher(in.jobs[i].ad())
	}
	rep.set("classad.compile_us", time.Since(t0).Seconds()*1e6/float64(n))

	// Machine ads carry what Pool.AddMachine adds to the advertised ad.
	var machines []*classad.Matcher
	add := func(ad *classad.Ad, name string, mips float64, load float64) {
		ad.Set("Machine", name).Set("Mips", mips).Set("OpSys", "LINUX").Set("LoadAvg", load)
		if !ad.Has("Arch") {
			ad.Set("Arch", "x86")
		}
		machines = append(machines, classad.NewMatcher(ad))
	}
	if in.machines == nil {
		for i := 0; i < in.size.machines; i++ {
			add(classad.New(), fmt.Sprintf("n%05d", i), 1, 0)
		}
	} else {
		for i, m := range in.machines[0] {
			add(m.ad(), fmt.Sprintf("n%05d", i), m.mips, m.load)
		}
	}
	type pair struct{ j, m *classad.Matcher }
	pairs := make([]pair, microPairs)
	for i := range pairs {
		pairs[i] = pair{jobs[rng.Intn(len(jobs))], machines[rng.Intn(len(machines))]}
	}
	matched := 0
	t0 = time.Now()
	for _, p := range pairs {
		if p.j.Match(p.m) {
			matched++
		}
	}
	rep.set("classad.match_ns", float64(time.Since(t0))/microPairs)
	var sink float64
	t0 = time.Now()
	for _, p := range pairs {
		sink += p.j.Rank(p.m)
	}
	rep.set("classad.rank_ns", float64(time.Since(t0))/microPairs)
	rankSink = sink
	rep.set("classad.match_true_share", float64(matched)/microPairs)
}

// rankSink keeps the compiler from discarding the timed Rank calls.
var rankSink float64

// microFairshare times the fair-share manager's three hot entry points
// on a manager loaded with the workload's owners.
func microFairshare(in *simInputs, rep *report) {
	const n = 10_000
	clock := simgrid.NewGrid(time.Second, 1).Engine.Clock()
	mgr := fairshare.NewManager(fairshare.Config{Clock: clock, HalfLife: time.Hour})
	owners := in.owners
	t0 := time.Now()
	for i := 0; i < n; i++ {
		mgr.RecordUsage(owners[i%len(owners)], "site0", 1)
	}
	rep.set("fairshare.record_usage_ns", float64(time.Since(t0))/n)
	var sink float64
	t0 = time.Now()
	for i := 0; i < n; i++ {
		sink += mgr.EffectivePriority(owners[i%len(owners)])
	}
	rep.set("fairshare.effective_priority_ns", float64(time.Since(t0))/n)
	rankSink += sink
	refs := make([]fairshare.JobRef, 1000)
	for i := range refs {
		refs[i] = fairshare.JobRef{Owner: owners[i%len(owners)], StaticPriority: i % 3, Submitted: clock.Now(), Seq: i}
	}
	const rounds = 100
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		mgr.SortKeysAt(clock.Now(), refs)
	}
	rep.set("fairshare.sort_keys_us", time.Since(t0).Seconds()*1e6/rounds)
}
