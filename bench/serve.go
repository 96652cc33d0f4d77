package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/simgrid"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/pkg/gae"
)

// serveSize sizes a serving workload. serveFull is the benchmark; tests
// use serveTiny.
type serveSize struct {
	nodes   int // per site; enough that every pre-submitted plan runs
	plans   int // pre-submitted per client
	keys    int // session-state keys per client
	history int // estimator records per site
	// readWarm and writeWarm are the untimed requests per client in every
	// set-up pass: enough that a pass is a few tenths of a second of real
	// work on either workload.
	readWarm, writeWarm int
	segOps              int // ops per client per timed segment
	// readSegs and writeSegs are how many segments each client sends per
	// second of --seconds on serve-read and serve-write, sized so that a
	// run takes about that long on the box the benchmark was defined on;
	// minSegs is the least a client sends.
	readSegs, writeSegs float64
	minSegs             int
	// ckptEvery makes client 0 checkpoint once in every ckptEvery of its
	// segments on serve-write, halfway through them: inside a block, so
	// that client 1 is sending while it runs.
	ckptEvery int
	killAfter int // ops between a Submit and the Kill of that plan
	traceOps  int // sequential ops in the traced slice
}

var (
	serveFull = serveSize{nodes: 32, plans: 16, keys: 32, history: 200, readWarm: 2000, writeWarm: 3000, segOps: 1000, readSegs: 3.8, writeSegs: 5.5, minSegs: 8, ckptEvery: 20, killAfter: 32, traceOps: 20_000}
	serveTiny = serveSize{nodes: 10, plans: 6, keys: 4, history: 20, readWarm: 20, writeWarm: 20, segOps: 40, minSegs: 4, ckptEvery: 2, killAfter: 8, traceOps: 120}
)

// segments is the fixed amount of work each client does in a run of the
// given length.
func (z serveSize) segments(write bool, seconds float64) int {
	per := z.readSegs
	if write {
		per = z.writeSegs
	}
	if n := int(seconds * per); n > z.minSegs {
		return n
	}
	return z.minSegs
}

// clients is the closed-loop client count: each analysis client waits
// for its reply before sending the next request (as in the paper's
// Figure 6), and the box has two processors.
const clients = 2

var siteNames = [2]string{"siteA", "siteB"}

func userOf(c int) string { return fmt.Sprintf("u%d", c) }
func passOf(c int) string { return fmt.Sprintf("pw%d", c) }

const initialCredits = 1e12

func serveConfig(size serveSize) core.Config {
	cfg := core.Config{
		Seed: 1,
		Sites: []core.SiteSpec{
			{Name: siteNames[0], Nodes: size.nodes, Load: simgrid.IdleLoad(), CostPerCPUSecond: 0.05, CostPerTransferMB: 0.01},
			{Name: siteNames[1], Nodes: size.nodes, Load: simgrid.IdleLoad(), CostPerCPUSecond: 0.02, CostPerTransferMB: 0.02},
		},
		Links: []core.LinkSpec{{A: siteNames[0], B: siteNames[1], MBps: 10, LatencyMS: 50}},
	}
	for c := 0; c < clients; c++ {
		cfg.Users = append(cfg.Users, core.UserSpec{Name: userOf(c), Password: passOf(c), Credits: initialCredits, Admin: true})
	}
	return cfg
}

// opKind names one RPC of the traffic mixes.
type opKind uint8

const (
	opJobStatus opKind = iota
	opJob
	opTaskStatus
	opPlan
	opWeather
	opEstimate
	opGetState
	opJobList
	opSetPriority
	opSetState
	opPause
	opResume
	opCharge
	opSubmit
	opKill
	numOpKinds
)

var opNames = [numOpKinds]string{"JobStatus", "Job", "TaskStatus", "Plan", "Weather", "EstimateRuntime", "GetState", "JobList", "SetPriority", "SetState", "Pause", "Resume", "ChargeUsage", "Submit", "Kill"}

// mutating reports whether the op is journaled.
func (k opKind) mutating() bool { return k >= opSetPriority }

// op is one generated request. Which fields matter depends on kind.
type op struct {
	kind    opKind
	plan    int // index into the client's pre-submitted plans
	site    int
	key     int
	prio    int
	profile int
	cpu, mb float64
	name    string // Submit / Kill: the plan's name
	value   string // SetState
}

// weight is one entry of a traffic mix; pauseResume stands for "Pause a
// running plan or Resume a paused one".
type weight struct {
	kind opKind
	pct  int
}

const pauseResume = numOpKinds

// The mixes. mixWrite is serve-write's traffic as a whole; the two
// clients split it so that the ops whose effects do not commute across
// users (Submit and Kill take pool-wide job IDs, ChargeUsage appends to
// one ledger) all come from client 0. core.journalCall applies an op
// before it takes its journal sequence number, so two clients racing on
// such ops could journal them in the other order than they applied, and
// the byte-identical recovery check at the end of the run would then
// fail for a reason that is the program's, not the benchmark's, to fix.
var (
	mixRead   = []weight{{opJobStatus, 17}, {opJob, 16}, {opTaskStatus, 20}, {opPlan, 15}, {opWeather, 10}, {opEstimate, 10}, {opGetState, 10}, {opJobList, 2}}
	mixWrite  = []weight{{opSetPriority, 39}, {opSetState, 30}, {pauseResume, 20}, {opCharge, 10}, {opSubmit, 1}}
	mixWrite0 = []weight{{opSetPriority, 33}, {opSetState, 20}, {pauseResume, 25}, {opCharge, 20}, {opSubmit, 2}}
	mixWrite1 = []weight{{opSetPriority, 45}, {opSetState, 40}, {pauseResume, 15}}
)

// profiles are the task profiles EstimateRuntime asks about; the queue
// names are the synthetic Paragon trace's.
var profiles = []gae.TaskProfile{
	{Queue: "q16s", Partition: "gae", Nodes: 16, JobType: "batch", ReqHours: 0.5},
	{Queue: "q32m", Partition: "gae", Nodes: 32, JobType: "batch", ReqHours: 2},
	{Queue: "q64l", Partition: "gae", Nodes: 64, JobType: "interactive", ReqHours: 10},
}

// opGen is one client's request stream: a pure function of the seed, the
// client index and the mix. It also holds what the client must remember
// to issue valid steering requests and to check the final state.
type opGen struct {
	rng    *rand.Rand
	client int
	mix    []weight
	size   serveSize
	n      int // ops generated so far
	// block is the kinds of the current hundred requests: exactly the
	// mix's percentages, in an order drawn from the seed. Every segment
	// of a run, and every seed's run, then sends the same composition,
	// and what differs between them is the program's speed.
	block []opKind

	paused    []bool // per pre-submitted plan
	prio      []int  // last priority set, per pre-submitted plan
	values    []string
	submitted int
	live      []liveSub // submitted, not yet killed, oldest first
	balance   float64
}

type liveSub struct {
	name string
	at   int // value of n when it was submitted
}

func newOpGen(seed int64, client int, mix []weight, size serveSize) *opGen {
	g := &opGen{
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client))),
		client: client, mix: mix, size: size,
		paused:  make([]bool, size.plans),
		prio:    make([]int, size.plans),
		values:  make([]string, size.keys),
		balance: initialCredits,
	}
	for k := range g.values {
		g.values[k] = initialValue(client, k)
	}
	return g
}

func planName(client, i int) string     { return fmt.Sprintf("p%d-%d", client, i) }
func keyName(client, k int) string      { return fmt.Sprintf("k%d-%d", client, k) }
func initialValue(client, k int) string { return fmt.Sprintf("v%d-%d-0", client, k) }

// next draws the client's next request.
func (g *opGen) next() op {
	g.n++
	if len(g.live) > 0 && g.n-g.live[0].at >= g.size.killAfter {
		o := op{kind: opKill, name: g.live[0].name}
		g.live = g.live[1:]
		return o
	}
	if len(g.block) == 0 {
		for _, w := range g.mix {
			for i := 0; i < w.pct; i++ {
				g.block = append(g.block, w.kind)
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[len(g.block)-1]
	g.block = g.block[:len(g.block)-1]
	o := op{kind: kind, plan: g.rng.Intn(g.size.plans)}
	switch kind {
	case pauseResume:
		o.kind = opPause
		if g.paused[o.plan] {
			o.kind = opResume
		}
		g.paused[o.plan] = !g.paused[o.plan]
	case opSetPriority:
		o.prio = g.rng.Intn(10)
		g.prio[o.plan] = o.prio
	case opSetState:
		o.key = g.rng.Intn(g.size.keys)
		o.value = fmt.Sprintf("v%d-%d-%d", g.client, o.key, g.n)
		g.values[o.key] = o.value
	case opGetState:
		o.key = g.rng.Intn(g.size.keys)
	case opEstimate:
		o.site = g.rng.Intn(len(siteNames))
		o.profile = g.rng.Intn(len(profiles))
	case opJobList:
		o.site = g.rng.Intn(len(siteNames))
	case opCharge:
		o.site = g.rng.Intn(len(siteNames))
		o.cpu = float64(1 + g.rng.Intn(600))
		o.mb = float64(g.rng.Intn(50))
	case opSubmit:
		o.name = fmt.Sprintf("w%d-%d", g.client, g.submitted)
		o.cpu = float64(3600 + g.rng.Intn(3600))
		g.submitted++
		g.live = append(g.live, liveSub{name: o.name, at: g.n})
	}
	return o
}

// streamHash folds the first n requests of a fresh stream into one
// number, so tests can tell a seed reproduces its stream.
func streamHash(seed int64, client int, mix []weight, size serveSize, n int) uint64 {
	g := newOpGen(seed, client, mix, size)
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		fmt.Fprintf(h, "%+v;", g.next())
	}
	return h.Sum64()
}

func planSpec(name string, cpu float64) gae.PlanSpec {
	return gae.PlanSpec{Name: name, Tasks: []gae.TaskSpec{{
		ID: "t0", CPUSeconds: cpu, Queue: "q16l", Partition: "gae", Nodes: 1, JobType: "batch", ReqHours: cpu / 3600,
	}}}
}

// presubmitCPU keeps the pre-submitted plans running for the whole run
// (simulated time stands still while the deployment serves) yet short
// enough that the simulator re-derives a resumed task's completion in
// closed form.
const presubmitCPU = 36_000

// planRef is where a pre-submitted plan's one task runs.
type planRef struct {
	name     string
	site     string
	condorID int
}

// expected holds, for serve-read, what every read must return: the
// answers the in-process client gave right after set-up. Nothing
// mutates the deployment during serve-read, so they stay true.
type expected struct {
	status  map[string]gae.SteeringStatus // by plan name
	job     map[string]gae.JobInfo
	plan    map[string]gae.PlanStatus
	weather []gae.SiteWeather
	est     [2][]gae.RuntimeEstimate // by site, profile
	jobs    [2][]gae.JobInfo         // by site
}

// deployment is one in-process GAE, pre-loaded and (optionally) durable.
type deployment struct {
	size  serveSize
	cfg   core.Config
	g     *core.GAE
	store *durable.Store // nil when storeless
	dir   string
	plans [clients][]planRef
	want  expected
}

// newDeployment builds the deployment, attaches a durable store in dir
// (none when dir is empty), pre-loads it through the in-process client,
// lets the plans start, and checkpoints.
func newDeployment(size serveSize, dir string) (*deployment, error) {
	d := &deployment{size: size, cfg: serveConfig(size), dir: dir}
	d.g = core.New(d.cfg)
	if dir != "" {
		store, err := durable.Open(dir)
		if err != nil {
			return nil, err
		}
		if err := d.g.AttachStore(store); err != nil {
			store.Close()
			return nil, err
		}
		d.store = store
	}
	ctx := context.Background()
	for s, site := range siteNames {
		svc, ok := d.g.Scheduler.SiteServicesFor(site)
		if !ok {
			return nil, fmt.Errorf("serve: site %s has no services", site)
		}
		for _, rec := range workload.ParagonTrace(workload.ParagonConfig{Jobs: size.history, Seed: int64(s + 1)}) {
			if err := svc.Runtime.History.Add(rec); err != nil {
				return nil, fmt.Errorf("serve: loading history: %w", err)
			}
		}
	}
	for c := 0; c < clients; c++ {
		cl := d.g.Client(userOf(c))
		for k := 0; k < size.keys; k++ {
			if err := cl.SetState(ctx, keyName(c, k), initialValue(c, k)); err != nil {
				return nil, fmt.Errorf("serve: pre-loading state: %w", err)
			}
		}
		for i := 0; i < size.plans; i++ {
			if _, err := cl.Submit(ctx, planSpec(planName(c, i), presubmitCPU)); err != nil {
				return nil, fmt.Errorf("serve: pre-submitting: %w", err)
			}
		}
	}
	d.g.Run(60 * time.Second)
	for c := 0; c < clients; c++ {
		cl := d.g.Client(userOf(c))
		for i := 0; i < size.plans; i++ {
			st, err := cl.TaskStatus(ctx, planName(c, i), "t0")
			if err != nil {
				return nil, fmt.Errorf("serve: pre-submitted plan: %w", err)
			}
			if st.Job == nil || st.Job.Status != "running" {
				return nil, fmt.Errorf("serve: plan %s is not running after set-up (%s); raise nodes", st.Plan, st.State)
			}
			d.plans[c] = append(d.plans[c], planRef{name: st.Plan, site: st.Site, condorID: st.CondorID})
		}
	}
	if err := d.g.Checkpoint(); err != nil {
		return nil, err
	}
	return d, d.loadExpected(ctx)
}

func (d *deployment) loadExpected(ctx context.Context) error {
	cl := d.g.Client(userOf(0))
	w := &d.want
	w.status = make(map[string]gae.SteeringStatus)
	w.job = make(map[string]gae.JobInfo)
	w.plan = make(map[string]gae.PlanStatus)
	var err error
	for c := 0; c < clients; c++ {
		for _, p := range d.plans[c] {
			if w.status[p.name], err = d.g.Client(userOf(c)).TaskStatus(ctx, p.name, "t0"); err != nil {
				return err
			}
			if w.plan[p.name], err = cl.Plan(ctx, p.name); err != nil {
				return err
			}
			if w.job[p.name], err = cl.Job(ctx, p.site, p.condorID); err != nil {
				return err
			}
		}
	}
	if w.weather, err = cl.Weather(ctx); err != nil {
		return err
	}
	for s, site := range siteNames {
		for _, prof := range profiles {
			est, err := cl.EstimateRuntime(ctx, site, prof)
			if err != nil {
				return err
			}
			w.est[s] = append(w.est[s], est)
		}
		if w.jobs[s], err = cl.JobList(ctx, site); err != nil {
			return err
		}
	}
	return nil
}

// close stops the server and the store and removes the journal.
func (d *deployment) close() {
	d.g.Stop() //nolint:errcheck // shutdown of a loopback server
	if d.store != nil {
		d.store.Close()
		os.RemoveAll(d.dir)
	}
}

func sameJob(a, b gae.JobInfo) bool {
	if !a.SubmitTime.Equal(b.SubmitTime) || !a.StartTime.Equal(b.StartTime) || !a.CompletionTime.Equal(b.CompletionTime) {
		return false
	}
	a.SubmitTime, a.StartTime, a.CompletionTime = time.Time{}, time.Time{}, time.Time{}
	b.SubmitTime, b.StartTime, b.CompletionTime = time.Time{}, time.Time{}, time.Time{}
	return a == b
}

func sameStatus(a, b gae.SteeringStatus) bool {
	if (a.Job == nil) != (b.Job == nil) || (a.Job != nil && !sameJob(*a.Job, *b.Job)) {
		return false
	}
	a.Job, b.Job = nil, nil
	return a == b
}

func samePlan(a, b gae.PlanStatus) bool {
	if a.Name != b.Name || a.Owner != b.Owner || a.Done != b.Done || a.Succeeded != b.Succeeded || len(a.Tasks) != len(b.Tasks) {
		return false
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			return false
		}
	}
	return true
}

// exec issues one request through cl as client c and verifies the reply:
// reads against what set-up recorded, writes by their acknowledgement.
// It returns the typed result (for the traced run's codec replay) and
// whether the reply was correct.
func (d *deployment) exec(ctx context.Context, cl *gae.Client, c int, gen *opGen, o op) (any, bool) {
	p := d.plans[c][o.plan]
	switch o.kind {
	case opJobStatus:
		got, err := cl.JobStatus(ctx, p.site, p.condorID)
		return got, err == nil && got == d.want.job[p.name].Status
	case opJob:
		got, err := cl.Job(ctx, p.site, p.condorID)
		return got, err == nil && sameJob(got, d.want.job[p.name])
	case opTaskStatus:
		got, err := cl.TaskStatus(ctx, p.name, "t0")
		return got, err == nil && sameStatus(got, d.want.status[p.name])
	case opPlan:
		got, err := cl.Plan(ctx, p.name)
		return got, err == nil && samePlan(got, d.want.plan[p.name])
	case opWeather:
		got, err := cl.Weather(ctx)
		ok := err == nil && len(got) == len(d.want.weather)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i] == d.want.weather[i]
		}
		return got, ok
	case opEstimate:
		got, err := cl.EstimateRuntime(ctx, siteNames[o.site], profiles[o.profile])
		return got, err == nil && got == d.want.est[o.site][o.profile]
	case opGetState:
		got, err := cl.GetState(ctx, keyName(c, o.key))
		return got, err == nil && got == gen.values[o.key]
	case opJobList:
		got, err := cl.JobList(ctx, siteNames[o.site])
		want := d.want.jobs[o.site]
		ok := err == nil && len(got) == len(want)
		for i := 0; ok && i < len(got); i++ {
			ok = sameJob(got[i], want[i])
		}
		return got, ok
	case opSetPriority:
		return true, cl.SetPriority(ctx, p.name, "t0", o.prio) == nil
	case opSetState:
		return true, cl.SetState(ctx, keyName(c, o.key), o.value) == nil
	case opPause:
		return true, cl.Pause(ctx, p.name, "t0") == nil
	case opResume:
		return true, cl.Resume(ctx, p.name, "t0") == nil
	case opCharge:
		got, err := cl.ChargeUsage(ctx, gae.ChargeRequest{User: userOf(c), Site: siteNames[o.site], CPUSeconds: o.cpu, MB: o.mb})
		site := d.cfg.Sites[o.site]
		gen.balance -= got
		return got, err == nil && got == o.cpu*site.CostPerCPUSecond+o.mb*site.CostPerTransferMB
	case opSubmit:
		got, err := cl.Submit(ctx, planSpec(o.name, o.cpu))
		return got, err == nil && got == o.name
	case opKill:
		return true, cl.Kill(ctx, o.name, "t0") == nil
	}
	return nil, false
}

// checkFinal compares what the deployment holds at the end of the run
// with what the client's own acknowledged requests imply, and returns
// the number of differences.
func (d *deployment) checkFinal(ctx context.Context, c int, gen *opGen) int {
	cl := d.g.Client(userOf(c))
	bad := 0
	for i, p := range d.plans[c] {
		st, err := cl.TaskStatus(ctx, p.name, "t0")
		wantStatus := "running"
		if gen.paused[i] {
			wantStatus = "suspended"
		}
		if err != nil || st.Job == nil || st.Job.Status != wantStatus || st.Job.Priority != gen.prio[i] {
			bad++
		}
	}
	for k, want := range gen.values {
		if got, err := cl.GetState(ctx, keyName(c, k)); err != nil || got != want {
			bad++
		}
	}
	if bal, err := cl.Balance(ctx); err != nil || bal != gen.balance {
		bad++
	}
	return bad
}

// wireClient is one remote client on its own keep-alive connection.
type wireClient struct {
	*gae.Client
	transport *http.Transport
}

func dialWire(ctx context.Context, url string, c int, rt func(http.RoundTripper) http.RoundTripper) (*wireClient, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	var wrapped http.RoundTripper = tr
	if rt != nil {
		wrapped = rt(tr)
	}
	cl, err := gae.Dial(ctx, url, gae.WithCredentials(userOf(c), passOf(c)), gae.WithTransport(wrapped))
	if err != nil {
		return nil, err
	}
	return &wireClient{Client: cl, transport: tr}, nil
}

func (w *wireClient) close(ctx context.Context) {
	w.Client.Close(ctx) //nolint:errcheck // logout of a loopback session
	w.transport.CloseIdleConnections()
}

// serving is a deployment with its server started, both clients dialed
// and warmed up: the state every set-up pass ends in.
type serving struct {
	d    *deployment
	cls  [clients]*wireClient
	gens [clients]*opGen
	// attempted/failed count every request sent, warm-up included.
	attempted, failed [clients]int
	// kindN/kindWall break the requests down by kind, per client.
	kindN    [clients][numOpKinds]int
	kindWall [clients][numOpKinds]time.Duration
}

func (s *serving) close(ctx context.Context) {
	for _, cl := range s.cls {
		if cl != nil {
			cl.close(ctx)
		}
	}
	s.d.close()
}

// journalSeq numbers the journal directories a run creates in its
// scratch directory.
var journalSeq atomic.Int64

// setUp is one set-up pass: build and pre-load a durable deployment,
// serve it on loopback, dial both clients and run the warm-up.
func setUp(ctx context.Context, write bool, seed int64, size serveSize, scratch string) (*serving, error) {
	d, err := newDeployment(size, filepath.Join(scratch, fmt.Sprintf("journal-%d", journalSeq.Add(1))))
	if err != nil {
		return nil, err
	}
	s := &serving{d: d}
	url, err := d.g.Start("127.0.0.1:0")
	if err != nil {
		s.close(ctx)
		return nil, err
	}
	for c := 0; c < clients; c++ {
		mix := mixRead
		if write {
			mix = [clients][]weight{mixWrite0, mixWrite1}[c]
		}
		s.gens[c] = newOpGen(seed, c, mix, size)
		if s.cls[c], err = dialWire(ctx, url, c, nil); err != nil {
			s.close(ctx)
			return nil, err
		}
	}
	warm := size.readWarm
	if write {
		warm = size.writeWarm
	}
	s.each(func(c int) {
		for i := 0; i < warm; i++ {
			s.one(ctx, c)
		}
	})
	return s, nil
}

// each runs fn once per client, concurrently, and waits.
func (s *serving) each(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// one sends client c's next request and returns its latency.
func (s *serving) one(ctx context.Context, c int) time.Duration {
	o := s.gens[c].next()
	t0 := time.Now()
	_, ok := s.d.exec(ctx, s.cls[c].Client, c, s.gens[c], o)
	lat := time.Since(t0)
	s.kindN[c][o.kind]++
	s.kindWall[c][o.kind] += lat
	s.attempted[c]++
	if !ok {
		s.failed[c]++
	}
	return lat
}

// serveResult is what a serving workload's timed phase measured.
type serveResult struct {
	setups      samples // seconds per set-up pass
	rate        samples // sum over clients of the median segment rate, one value
	timed       time.Duration
	lat         []uint32 // per-request latency in ns, all clients, sorted
	checkpoints int
	// stall is the largest latency of a request that overlapped a
	// checkpoint.
	stall             time.Duration
	attempted, failed int
	recovered         bool // the recovered state's bytes equal the live state's
	recoverOps        int
	recoverWall       time.Duration
	stateBytes        int
	byKind            string
	// peakRSS is the process's resident-set high-water mark, in MB, when
	// the timed phase ended: the end-state check that follows holds a
	// second deployment, which is the harness's memory, not the
	// program's.
	peakRSS float64
	// before and after are the deployment's telemetry around the timed
	// phase; their difference is what the phase itself journaled.
	before, after telemetry.Snapshot
}

// blockSegs is how many segments each client sends between two timings
// of the calibration kernel.
const blockSegs = 10

// timedPhase has both closed-loop clients send segs segments of
// size.segOps requests each, in blocks of blockSegs with the calibration
// kernel timed before and after each block. A client's rate is the median of its
// segments' rates, so one slow stretch cannot move it, and the
// workload's rate is the sum over the clients; segments that ended after
// the first client had finished the block ran against an idler server
// and are left out. On serve-write client 0 checkpoints between its
// segments: its segment clock excludes the checkpoint, client 1 lives
// through it.
func (s *serving) timedPhase(ctx context.Context, write bool, segs int, cal *calibrator, res *serveResult) error {
	size := s.d.size
	// epoch is odd while a checkpoint is running; a client that sees it
	// odd, or changed, around a request knows the two overlapped.
	var epoch atomic.Int64
	var ckptErr error
	res.before = s.d.g.Telemetry.Snapshot()
	type segment struct {
		rate float64
		end  time.Time
	}
	var (
		lats   [clients][]uint32
		rates  [clients]samples
		stalls [clients]time.Duration
	)
	for c := range lats {
		lats[c] = make([]uint32, 0, segs*size.segOps)
	}
	// The collector runs before every timing of the kernel, as in the
	// simulator workloads: the kernel then has the processors to itself,
	// and every block starts from a swept heap.
	start := time.Now()
	runtime.GC()
	before := cal.sample()
	for lo := 0; lo < segs; lo += blockSegs {
		hi := min(lo+blockSegs, segs)
		var done [clients][]segment
		s.each(func(c int) {
			for seg := lo; seg < hi; seg++ {
				t0 := time.Now()
				for i := 0; i < size.segOps; i++ {
					before := epoch.Load()
					lat := s.one(ctx, c)
					if after := epoch.Load(); (before&1 == 1 || after != before) && lat > stalls[c] {
						stalls[c] = lat
					}
					lats[c] = append(lats[c], uint32(min(lat.Nanoseconds(), int64(^uint32(0)))))
				}
				end := time.Now()
				done[c] = append(done[c], segment{rate: float64(size.segOps) / end.Sub(t0).Seconds(), end: end})
				if write && c == 0 && seg%size.ckptEvery == size.ckptEvery/2 && seg+1 < segs {
					epoch.Add(1)
					err := s.d.g.Checkpoint()
					epoch.Add(1)
					if err != nil && ckptErr == nil {
						ckptErr = err
					}
					res.checkpoints++
				}
			}
		})
		runtime.GC()
		after := cal.sample()
		slow := (before + after) / 2
		before = after
		firstDone := done[0][len(done[0])-1].end
		for c := 1; c < clients; c++ {
			if e := done[c][len(done[c])-1].end; e.Before(firstDone) {
				firstDone = e
			}
		}
		for c := 0; c < clients; c++ {
			for _, sg := range done[c] {
				if !sg.end.After(firstDone) {
					rates[c].addRate(sg.rate, slow)
				}
			}
		}
	}
	res.timed = time.Since(start)
	res.after = s.d.g.Telemetry.Snapshot()
	if ckptErr != nil {
		return ckptErr
	}
	res.rate = samples{measured: []float64{0}, scaled: []float64{0}}
	for c := 0; c < clients; c++ {
		res.rate.measured[0] += median(rates[c].measured)
		res.rate.scaled[0] += median(rates[c].scaled)
		res.lat = append(res.lat, lats[c]...)
		if stalls[c] > res.stall {
			res.stall = stalls[c]
		}
	}
	slices.Sort(res.lat)
	return nil
}

// percentile reads the q-th quantile of sorted latencies, in µs.
func percentileUS(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// byKind renders the per-kind request counts and mean latencies.
func (s *serving) byKind() string {
	var b strings.Builder
	for k := opKind(0); k < numOpKinds; k++ {
		var n int
		var wall time.Duration
		for c := 0; c < clients; c++ {
			n += s.kindN[c][k]
			wall += s.kindWall[c][k]
		}
		if n > 0 {
			fmt.Fprintf(&b, "  %-16s %8d ops  mean %9.1f us\n", opNames[k], n, float64(wall)/1e3/float64(n))
		}
	}
	return b.String()
}

// finish verifies the end state and tears the serving deployment down.
// For serve-write that is: the state each client's acknowledged requests
// imply, and a fresh deployment recovered from the journal directory
// whose encoded state equals the live one byte for byte.
func (s *serving) finish(ctx context.Context, write bool, res *serveResult) error {
	for c := 0; c < clients; c++ {
		res.attempted += s.attempted[c]
		res.failed += s.failed[c]
	}
	res.byKind = s.byKind()
	if !write {
		s.close(ctx)
		return nil
	}
	for c := 0; c < clients; c++ {
		res.failed += s.d.checkFinal(ctx, c, s.gens[c])
	}
	live, err := encodeState(s.d.g)
	if err != nil {
		return err
	}
	res.stateBytes = len(live)
	for _, cl := range s.cls {
		cl.close(ctx)
	}
	s.d.g.Stop() //nolint:errcheck // shutdown of a loopback server
	if err := s.d.store.Close(); err != nil {
		return err
	}
	defer os.RemoveAll(s.d.dir)

	t0 := time.Now()
	fresh := core.New(s.d.cfg)
	store, err := durable.Open(s.d.dir)
	if err != nil {
		return err
	}
	defer store.Close()
	if warn := store.ScanWarning(); warn != nil {
		return fmt.Errorf("serve-write: journal scan: %w", warn)
	}
	_, tail := store.Recovery()
	if err := fresh.AttachStore(store); err != nil {
		return err
	}
	res.recoverWall = time.Since(t0)
	res.recoverOps = len(tail)
	recovered, err := encodeState(fresh)
	if err != nil {
		return err
	}
	res.recovered = bytes.Equal(live, recovered)
	if !res.recovered {
		res.failed++
	}
	return nil
}

func encodeState(g *core.GAE) ([]byte, error) {
	st, err := g.CaptureState()
	if err != nil {
		return nil, err
	}
	return durable.EncodeState(&st)
}

// setupPasses is how many times an untraced serving run sets up; setup_s
// is their median.
const setupPasses = 5

// runServe is the two-client run of a serving workload: passes set-up
// passes (all but the last torn down again, the collector run before
// each so that every pass starts from the same heap), the timed phase on
// the last one, and the end-state check.
func runServe(ctx context.Context, write bool, seed int64, size serveSize, scratch string, passes, segs int, cal *calibrator) (*serveResult, error) {
	res := &serveResult{}
	var s *serving
	for i := 0; i < passes; i++ {
		if s != nil {
			s.close(ctx)
		}
		runtime.GC()
		before := cal.sample()
		t0 := time.Now()
		var err error
		if s, err = setUp(ctx, write, seed, size, scratch); err != nil {
			return nil, err
		}
		sec := time.Since(t0).Seconds()
		res.setups.addSeconds(sec, (before+cal.sample())/2)
	}
	err := s.timedPhase(ctx, write, segs, cal, res)
	if err == nil {
		res.peakRSS, err = peakRSSMB()
	}
	if err != nil {
		s.close(ctx)
		return nil, err
	}
	return res, s.finish(ctx, write, res)
}
