package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clarens"
	"repro/internal/condor"
	"repro/internal/durable"
	"repro/internal/fairshare"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

// durableConfig is the recovery-test deployment: the canonical two sites
// plus fair-share accounting, so every snapshotted component carries
// state.
func durableConfig() Config {
	cfg := twoSiteConfig()
	cfg.FairShare = &fairshare.Config{HalfLife: time.Hour}
	cfg.Sites[0].CostPerTransferMB = 0.05
	return cfg
}

func specOf(name string, cpu float64) gae.PlanSpec {
	return gae.PlanSpec{
		Name: name,
		Tasks: []gae.TaskSpec{{
			ID: "main", CPUSeconds: cpu,
			Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
			ReqHours: cpu / 3600, OutputFile: name + ".dat", OutputMB: 1,
		}},
	}
}

// encodeState captures and canonically encodes the deployment state.
func encodeState(t *testing.T, g *GAE) []byte {
	t.Helper()
	st, err := g.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := durable.EncodeState(&st)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func diffLines(t *testing.T, want, got []byte) {
	t.Helper()
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			t.Fatalf("state diverges at line %d:\n  pre-crash:  %s\n  recovered:  %s", i+1, w[i], g[i])
		}
	}
	t.Fatalf("state diverges in length: pre-crash %d lines, recovered %d", len(w), len(g))
}

// TestCrashRecoveryByteIdentical is the durability acceptance test: a
// deployment serves a mixed workload through the typed clients, takes a
// mid-flight checkpoint, serves more acknowledged RPCs (the journal
// tail), and is then hard-stopped — no graceful shutdown, no final
// checkpoint. A fresh process recovering from the same directory must
// reproduce the pre-crash state byte for byte: job queues, machine
// claims, fair-share accounts, the quota ledger, the replica catalog,
// submitted plans, and per-user session state.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	ctx := context.Background()

	g1 := New(cfg)
	s1, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.AttachStore(s1); err != nil {
		t.Fatal(err)
	}
	alice := g1.Client("alice")
	root := g1.Client("root")

	// Deployment-level seeding (captured by the checkpoint).
	if err := g1.PutDataset("siteA", "hits.root", 40); err != nil {
		t.Fatal(err)
	}

	// Pre-checkpoint traffic: plans, session state, accounting.
	if _, err := alice.Submit(ctx, specOf("p-short", 30)); err != nil {
		t.Fatal(err)
	}
	longSpec := specOf("p-long", 600)
	longSpec.Tasks[0].Checkpointable = true
	if _, err := alice.Submit(ctx, longSpec); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetState(ctx, "cuts", "pt>20 && |eta|<2.4"); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetState(ctx, "scratch", "tmp"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.DeleteState(ctx, "scratch"); err != nil {
		t.Fatal(err)
	}
	if err := root.Grant(ctx, "alice", 250); err != nil {
		t.Fatal(err)
	}
	if _, err := root.ChargeUsage(ctx, gae.ChargeRequest{
		User: "alice", Site: "siteA", CPUSeconds: 120, MB: 30, Note: "imported history",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.SetPreference(ctx, "cheap"); err != nil {
		t.Fatal(err)
	}

	// Let the short plan finish and the long one accrue CPU, then
	// checkpoint with a job mid-execution (its claim becomes a lease).
	g1.Run(90 * time.Second)
	if err := g1.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Journal tail: acknowledged after the checkpoint, recovered by
	// replay alone.
	if _, err := alice.Submit(ctx, specOf("p-tail", 45)); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetState(ctx, "phase", "2"); err != nil {
		t.Fatal(err)
	}
	if err := root.Grant(ctx, "alice", 10); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetPriority(ctx, "p-long", "main", 7); err != nil {
		t.Fatal(err)
	}
	if err := alice.RegisterReplica(ctx, "hits.root", "siteB", 40); err != nil {
		t.Fatal(err)
	}

	want := encodeState(t, g1)
	// Hard stop: the process dies here. Everything acknowledged is
	// already fsynced; closing the store stands in for process death.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := New(cfg)
	s2, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if warn := s2.ScanWarning(); warn != nil {
		t.Fatalf("clean journal reported corruption: %v", warn)
	}
	if snap, tail := s2.Recovery(); snap == nil || len(tail) != 5 {
		t.Fatalf("Open found snapshot %v and %d tail ops, want the checkpoint and the 5 RPCs after it", snap != nil, len(tail))
	}
	if err := g2.AttachStore(s2); err != nil {
		t.Fatal(err)
	}
	// What Open found has been applied and handed over: the store does
	// not keep a second copy of the state for the life of the process.
	if snap, tail := s2.Recovery(); snap != nil || tail != nil {
		t.Fatalf("the store still holds its recovery after AttachStore (snapshot %v, %d ops)", snap != nil, len(tail))
	}

	if !g2.Now().Equal(g1.Now()) {
		t.Fatalf("recovered simulated time %v, want %v", g2.Now(), g1.Now())
	}
	got := encodeState(t, g2)
	if !bytes.Equal(want, got) {
		diffLines(t, want, got)
	}

	// The recovered deployment is live: the mid-flight plan runs to
	// completion on its re-bound lease.
	cp, ok := g2.Scheduler.Plan("p-long")
	if !ok {
		t.Fatal("recovered deployment lost plan p-long")
	}
	if err := g2.RunUntilDone(cp, time.Hour); err != nil {
		t.Fatal(err)
	}
	if done, succeeded := cp.Done(); !done || !succeeded {
		t.Fatalf("recovered plan done=%v succeeded=%v", done, succeeded)
	}
	// New traffic keeps journaling after recovery.
	if err := g2.Client("alice").SetState(ctx, "phase", "3"); err != nil {
		t.Fatal(err)
	}
}

// mutationStep is one journaled call of everyMutation.
type mutationStep struct {
	method string // the name it journals under
	call   func(ctx context.Context) error
}

// everyMutation is a call of each of the twelve mutating methods, made on g
// (alice's, and root's for the two administrator methods) once hits.root
// is stored at siteA. Its two submissions give steering a running task and
// a queued one; it advances simulated time only after the first.
func everyMutation(g *GAE) []mutationStep {
	alice, root := g.Client("alice"), g.Client("root")
	return []mutationStep{
		{"scheduler.submit", func(ctx context.Context) error {
			_, err := alice.Submit(ctx, specOf("p-steer", 600))
			g.Run(30 * time.Second)
			return err
		}},
		{"scheduler.submit", func(ctx context.Context) error { _, err := alice.Submit(ctx, specOf("p-kill", 600)); return err }},
		{"steering.pause", func(ctx context.Context) error { return alice.Pause(ctx, "p-steer", "main") }},
		{"steering.resume", func(ctx context.Context) error { return alice.Resume(ctx, "p-steer", "main") }},
		{"steering.setpriority", func(ctx context.Context) error { return alice.SetPriority(ctx, "p-steer", "main", 7) }},
		{"steering.move", func(ctx context.Context) error { _, err := alice.Move(ctx, "p-steer", "main", ""); return err }},
		{"steering.kill", func(ctx context.Context) error { return alice.Kill(ctx, "p-kill", "main") }},
		{"steering.setpreference", func(ctx context.Context) error { _, err := alice.SetPreference(ctx, "cheap"); return err }},
		{"state.set", func(ctx context.Context) error { return alice.SetState(ctx, "cuts", "pt>20") }},
		{"state.set", func(ctx context.Context) error { return alice.SetState(ctx, "draft", "tmp") }},
		{"state.delete", func(ctx context.Context) error { _, err := alice.DeleteState(ctx, "draft"); return err }},
		{"replica.register", func(ctx context.Context) error { return alice.RegisterReplica(ctx, "hits.root", "siteB", 40) }},
		{"quota.grant", func(ctx context.Context) error { return root.Grant(ctx, "alice", 250) }},
		{"quota.charge", func(ctx context.Context) error {
			_, err := root.ChargeUsage(ctx, gae.ChargeRequest{User: "alice", Site: "siteA", CPUSeconds: 120, MB: 30, Note: "imported"})
			return err
		}},
	}
}

// journalEveryMutation attaches a store in dir to a fresh deployment,
// stores hits.root, checkpoints, and makes everyMutation's calls under the
// request IDs rid-0, rid-1, ... It returns the deployment, its store and
// the steps.
func journalEveryMutation(t *testing.T, dir string) (*GAE, *durable.Store, []mutationStep) {
	t.Helper()
	g := New(durableConfig())
	s, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	if err := g.PutDataset("siteA", "hits.root", 40); err != nil {
		t.Fatal(err)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	steps := everyMutation(g)
	for i, st := range steps {
		if err := st.call(gae.WithRequestID(context.Background(), fmt.Sprintf("rid-%d", i))); err != nil {
			t.Fatalf("%s: %v", st.method, err)
		}
	}
	return g, s, steps
}

// TestEveryJournaledMethodReplays: each of the twelve mutating rows — the
// tail covers every mutating row's journal name, and no read's — is
// called after a checkpoint, under a pinned request ID, and a fresh
// deployment recovering from the snapshot and that journal tail reaches
// the live state byte for byte — idempotency window included, so every
// replayed method re-records the result its live call acknowledged.
// Simulated time is not advanced after the last op: recovery replays no
// time that no journal record covers.
func TestEveryJournaledMethodReplays(t *testing.T) {
	dir := t.TempDir()
	g1, s1, steps := journalEveryMutation(t, dir)
	covered := make(map[string]bool)
	for _, st := range steps {
		covered[st.method] = true
	}
	for _, m := range gae.Methods() {
		if m.Mutates != covered[m.Op] {
			t.Errorf("row %s (mutates: %v) is journaled by the tail: %v", m.Op, m.Mutates, covered[m.Op])
		}
	}
	want := encodeState(t, g1)
	if err := s1.Close(); err != nil { // the process dies here
		t.Fatal(err)
	}

	g2 := New(durableConfig())
	s2, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, tail := s2.Recovery()
	if snap == nil || len(tail) != len(steps) {
		t.Fatalf("Open found snapshot %v and %d tail ops, want the checkpoint and %d", snap != nil, len(tail), len(steps))
	}
	for i, op := range tail {
		if got := op.Service + "." + op.Method; got != steps[i].method || op.RequestID != fmt.Sprintf("rid-%d", i) {
			t.Fatalf("tail op %d is %s under %q, want %s under rid-%d", i, got, op.RequestID, steps[i].method, i)
		}
	}
	if err := g2.AttachStore(s2); err != nil {
		t.Fatal(err)
	}
	if !g2.Now().Equal(g1.Now()) {
		t.Fatalf("recovered simulated time %v, want %v", g2.Now(), g1.Now())
	}
	if got := encodeState(t, g2); !bytes.Equal(want, got) {
		diffLines(t, want, got)
	}
}

// TestPinnedJournalRecovers holds the journal format still. The store
// under testdata/journal/store (a snapshot and a journal tail of
// everyMutation's calls) and the state it recovers to, testdata/journal/
// state.json, were written by the journaling wrappers and replay table the
// method rows replaced. This tree recovers that store to the same bytes,
// and journals the same calls into the same journal.
func TestPinnedJournalRecovers(t *testing.T) {
	pinned := filepath.Join("testdata", "journal")
	want, err := os.ReadFile(filepath.Join(pinned, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{durable.SnapshotFile, durable.JournalFile, durable.HistoryFile} {
		raw, err := os.ReadFile(filepath.Join(pinned, "store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g := New(durableConfig())
	s, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	if got := encodeState(t, g); !bytes.Equal(want, got) {
		diffLines(t, want, got)
	}

	fresh := t.TempDir()
	_, s2, _ := journalEveryMutation(t, fresh)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{durable.SnapshotFile, durable.JournalFile} {
		got, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		if want, err := os.ReadFile(filepath.Join(pinned, "store", name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s differs from the pinned one (%v):\n got %s\nwant %s", name, err, got, want)
		}
	}
}

// serveRaw serves one call on g's Clarens host, as alice, and returns the
// reply document as it goes on the wire.
func serveRaw(t *testing.T, g *GAE, method string, args ...any) []byte {
	t.Helper()
	body, err := xmlrpc.EncodeRequest(method, args)
	if err != nil {
		t.Fatal(err)
	}
	return serveDoc(t, g, body)
}

// serveDoc serves one request document on g's Clarens host, as alice.
func serveDoc(t *testing.T, g *GAE, body []byte) []byte {
	t.Helper()
	return serveDocAs(t, g, "alice", "pw", body)
}

// serveDocAs is serveDoc logged in as user.
func serveDocAs(t *testing.T, g *GAE, user, pass string, body []byte) []byte {
	t.Helper()
	post := func(token string, body []byte) []byte {
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		req.Header.Set(clarens.SessionHeader, token)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		return rec.Body.Bytes()
	}
	login, err := xmlrpc.EncodeRequest("system.auth", []any{user, pass})
	if err != nil {
		t.Fatal(err)
	}
	var token string
	if err := xmlrpc.DecodeResponseInto(bytes.NewReader(post("", login)), &token); err != nil {
		t.Fatal(err)
	}
	return post(token, body)
}

// TestJobmonAnswersSameAcrossRestart: a finished job's monitoring record
// lives in the pool, which the durable store snapshots — jobmon's record
// of it is memory only. Across a kill and a recovery from the same directory
// jobmon.info and jobmon.list answer with the same bytes. So do
// steering.jobs and a restored task's steering.status: steering reads the
// plans the scheduler restored, nothing of its own.
func TestJobmonAnswersSameAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	ctx := context.Background()

	g1 := New(cfg)
	s1, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.AttachStore(s1); err != nil {
		t.Fatal(err)
	}
	alice := g1.Client("alice")
	for _, spec := range []gae.PlanSpec{specOf("p-done", 30), specOf("p-long", 600)} {
		if _, err := alice.Submit(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	g1.Run(90 * time.Second)
	if err := g1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A journal tail, so recovery replays as well as restores.
	if _, err := alice.Submit(ctx, specOf("p-tail", 45)); err != nil {
		t.Fatal(err)
	}
	cp, ok := g1.Scheduler.Plan("p-done")
	if !ok {
		t.Fatal("no plan p-done")
	}
	a, _ := cp.Assignment("main")
	info := serveRaw(t, g1, "jobmon.info", a.Site, a.CondorID)
	list := serveRaw(t, g1, "jobmon.list", a.Site)
	jobs := serveRaw(t, g1, "steering.jobs")
	status := serveRaw(t, g1, "steering.status", "p-long", "main")
	var st gae.SteeringStatus
	if err := xmlrpc.DecodeResponseInto(bytes.NewReader(status), &st); err != nil || st.Plan != "p-long" {
		t.Fatalf("steering.status before the kill = %+v, %v", st, err)
	}
	var job gae.JobInfo
	if err := xmlrpc.DecodeResponseInto(bytes.NewReader(info), &job); err != nil || job.Status != "completed" {
		t.Fatalf("jobmon.info before the kill = %+v, %v; want a completed job", job, err)
	}
	// With its pool down, only a stored record can answer.
	pool, _ := g1.Pool(a.Site)
	pool.Fail()
	if got := serveRaw(t, g1, "jobmon.info", a.Site, a.CondorID); !bytes.Equal(got, info) {
		t.Fatalf("the finished job never reached the records, so the test compares nothing: with its pool down jobmon.info = %s", got)
	}
	if err := s1.Close(); err != nil { // the process dies here
		t.Fatal(err)
	}

	g2 := New(cfg)
	s2, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := g2.AttachStore(s2); err != nil {
		t.Fatal(err)
	}
	if got := serveRaw(t, g2, "jobmon.info", a.Site, a.CondorID); !bytes.Equal(got, info) {
		t.Errorf("jobmon.info after recovery:\n got %s\nwant %s", got, info)
	}
	if got := serveRaw(t, g2, "jobmon.list", a.Site); !bytes.Equal(got, list) {
		t.Errorf("jobmon.list after recovery:\n got %s\nwant %s", got, list)
	}
	if got := serveRaw(t, g2, "steering.jobs"); !bytes.Equal(got, jobs) {
		t.Errorf("steering.jobs after recovery:\n got %s\nwant %s", got, jobs)
	}
	if got := serveRaw(t, g2, "steering.status", "p-long", "main"); !bytes.Equal(got, status) {
		t.Errorf("steering.status of a restored task after recovery:\n got %s\nwant %s", got, status)
	}
}

// TestCompletionEstimateSameAcrossRestart pins that a task's time to
// completion is computed from what a recovery restores — the job ads and
// the queue — and not from the placement-time decision record:
// steering.estimate, estimator.queuetime and jobmon.remaining answer byte
// for byte the same for a queued and a running task across a kill and a
// recovery, and a running task's estimate is its remaining runtime alone.
func TestCompletionEstimateSameAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	ctx := context.Background()

	g1 := New(cfg)
	s1, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.AttachStore(s1); err != nil {
		t.Fatal(err)
	}
	alice := g1.Client("alice")
	// Three 600 s plans per one-node site: at 700 s the first two are
	// done, the two placed behind them run with ~500 s left, and the last
	// two are queued.
	var names []string
	for i := 1; i <= 6; i++ {
		name := fmt.Sprintf("p%d", i)
		names = append(names, name)
		if _, err := alice.Submit(ctx, specOf(name, 600)); err != nil {
			t.Fatal(err)
		}
	}
	g1.Run(700 * time.Second)
	if err := g1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A journal tail, so recovery replays as well as restores.
	if err := alice.SetState(ctx, "after", "checkpoint"); err != nil {
		t.Fatal(err)
	}

	type probe struct {
		plan string
		site string
		id   int
	}
	var running, queued *probe
	for _, name := range names {
		cp, ok := g1.Scheduler.Plan(name)
		if !ok {
			t.Fatalf("no plan %s", name)
		}
		a, _ := cp.Assignment("main")
		pool, _ := g1.Pool(a.Site)
		info, err := pool.Job(a.CondorID)
		if err != nil {
			t.Fatal(err)
		}
		p := &probe{plan: name, site: a.Site, id: a.CondorID}
		switch {
		case info.Status == condor.StatusRunning && running == nil:
			running = p
		case info.Status == condor.StatusIdle && queued == nil:
			queued = p
		}
	}
	if running == nil || queued == nil {
		t.Fatalf("want a running and a queued task at 700 s; running %+v, queued %+v", running, queued)
	}
	answers := func(g *GAE) [][]byte {
		var out [][]byte
		for _, p := range []*probe{running, queued} {
			out = append(out,
				serveRaw(t, g, "steering.estimate", p.plan, "main"),
				serveRaw(t, g, "estimator.queuetime", p.site, p.id),
				serveRaw(t, g, "jobmon.remaining", p.site, p.id))
		}
		return out
	}
	before := answers(g1)
	var estimate, remaining float64
	if err := xmlrpc.DecodeResponseInto(bytes.NewReader(before[0]), &estimate); err != nil {
		t.Fatal(err)
	}
	if err := xmlrpc.DecodeResponseInto(bytes.NewReader(before[2]), &remaining); err != nil {
		t.Fatal(err)
	}
	if estimate != remaining || remaining <= 0 {
		t.Fatalf("running task: steering.estimate = %v, want its remaining estimate %v", estimate, remaining)
	}
	if err := s1.Close(); err != nil { // the process dies here
		t.Fatal(err)
	}

	g2 := New(cfg)
	s2, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := g2.AttachStore(s2); err != nil {
		t.Fatal(err)
	}
	methods := []string{"steering.estimate", "estimator.queuetime", "jobmon.remaining"}
	for i, got := range answers(g2) {
		task := []string{"running", "queued"}[i/len(methods)]
		if !bytes.Equal(got, before[i]) {
			t.Errorf("%s for the %s task after recovery:\n got %s\nwant %s", methods[i%len(methods)], task, got, before[i])
		}
	}
}

// TestJournalOnlyRecovery recovers with no snapshot at all: the journal
// replays every acknowledged RPC at its recorded simulated time against
// a fresh deployment, re-running the deterministic simulation in
// between.
func TestJournalOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	ctx := context.Background()

	g1 := New(cfg)
	s1, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.AttachStore(s1); err != nil {
		t.Fatal(err)
	}
	alice := g1.Client("alice")
	if _, err := alice.Submit(ctx, specOf("p1", 30)); err != nil {
		t.Fatal(err)
	}
	g1.Run(45 * time.Second)
	if err := alice.SetState(ctx, "after", "p1"); err != nil {
		t.Fatal(err)
	}
	want := encodeState(t, g1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := New(cfg)
	s2, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := g2.AttachStore(s2); err != nil {
		t.Fatal(err)
	}
	got := encodeState(t, g2)
	if !bytes.Equal(want, got) {
		diffLines(t, want, got)
	}
}

// TestConcurrentMutationsReplayInApplyOrder fires calls that do not
// commute from many goroutines at once against a durable deployment,
// then recovers a second deployment from the journal alone. The journal
// must hold the calls in the order they were applied: replayed in any
// other, the recovered state differs from the live one, or a replayed
// call fails that succeeded live. Calls that fail live are part of the
// race (a charge before any grant, a move after the kill) and are not
// journaled.
func TestConcurrentMutationsReplayInApplyOrder(t *testing.T) {
	type call func(ctx context.Context, alice, root *gae.Client) error
	const n = 48
	// alternate builds the n calls of a pair: even slots call a, odd
	// slots call b, each told its slot.
	alternate := func(a, b func(i int) call) []call {
		calls := make([]call, n)
		for i := range calls {
			if i%2 == 0 {
				calls[i] = a(i)
			} else {
				calls[i] = b(i)
			}
		}
		return calls
	}
	submit := func(i int) call {
		return func(ctx context.Context, alice, _ *gae.Client) error {
			_, err := alice.Submit(ctx, specOf(fmt.Sprintf("p%02d", i), 30))
			return err
		}
	}
	setPriority := func(i int) call {
		return func(ctx context.Context, alice, _ *gae.Client) error {
			return alice.SetPriority(ctx, "p", "main", i)
		}
	}
	grant := func(int) call {
		return func(ctx context.Context, _, root *gae.Client) error { return root.Grant(ctx, "bob", 1) }
	}
	charge := func(int) call {
		return func(ctx context.Context, _, root *gae.Client) error {
			_, err := root.ChargeUsage(ctx, gae.ChargeRequest{User: "bob", Site: "siteA", CPUSeconds: 10})
			return err
		}
	}
	move := func(i int) call {
		site := [2]string{"siteA", "siteB"}[i/2%2]
		return func(ctx context.Context, alice, _ *gae.Client) error {
			_, err := alice.Move(ctx, "p", "main", site)
			return err
		}
	}
	// Moves race each other in the first half of the slots, and kills
	// join them in the second, so that some moves land before the kill.
	moveThenKill := func(i int) call {
		if i < n/2 {
			return move(i)
		}
		return func(ctx context.Context, alice, _ *gae.Client) error { return alice.Kill(ctx, "p", "main") }
	}
	setState := func(i int) call {
		return func(ctx context.Context, alice, _ *gae.Client) error { return alice.SetState(ctx, "k", fmt.Sprint(i)) }
	}
	deleteState := func(int) call {
		return func(ctx context.Context, alice, _ *gae.Client) error {
			_, err := alice.DeleteState(ctx, "k")
			return err
		}
	}
	cases := []struct {
		name  string
		setup bool // submit plan "p" (task "main") first
		calls []call
	}{
		{"submit-submit", false, alternate(submit, submit)},
		{"setpriority-setpriority", true, alternate(setPriority, setPriority)},
		{"grant-charge", false, alternate(grant, charge)},
		{"move-kill", true, alternate(move, moveThenKill)},
		{"set-delete", false, alternate(setState, deleteState)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig()
			cfg.Users = append(cfg.Users, UserSpec{Name: "bob", Password: "pw"}) // no credits, no account
			ctx := context.Background()

			g1 := New(cfg)
			s1, err := durable.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := g1.AttachStore(s1); err != nil {
				t.Fatal(err)
			}
			alice, root := g1.Client("alice"), g1.Client("root")
			if tc.setup {
				if _, err := alice.Submit(ctx, specOf("p", 600)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for _, c := range tc.calls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = c(ctx, alice, root) // losing the race is an answer too
				}()
			}
			wg.Wait()
			want := encodeState(t, g1)
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}

			g2 := New(cfg)
			s2, err := durable.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if err := g2.AttachStore(s2); err != nil {
				t.Fatalf("journal-only recovery: %v", err)
			}
			if got := encodeState(t, g2); !bytes.Equal(want, got) {
				diffLines(t, want, got)
			}
		})
	}
}

// journaled reads back the ops the journal in dir holds.
func journaled(t *testing.T, dir string) []durable.Op {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, durable.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := durable.ScanJournalOps(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestCheckpointTruncatesJournal pins the checkpoint cycle: ops journal,
// checkpoint truncates, later ops journal again with continuous
// sequence numbers.
func TestCheckpointTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	g := New(durableConfig())
	s, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	alice := g.Client("alice")
	for i := 0; i < 3; i++ {
		if err := alice.SetState(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if ops := journaled(t, dir); len(ops) != 3 || ops[2].Seq != 3 {
		t.Fatalf("journal after 3 ops: %+v", ops)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetState(ctx, "k3", "v"); err != nil {
		t.Fatal(err)
	}
	if ops := journaled(t, dir); len(ops) != 1 || ops[0].Seq != 4 {
		t.Fatalf("journal after checkpoint + 1 op: %+v", ops)
	}
}

// TestRejectedRPCsAreNotJournaled pins the ack contract: a call that
// fails is not recorded, so replay never re-applies a rejection.
func TestRejectedRPCsAreNotJournaled(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	g := New(durableConfig())
	s, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	alice := g.Client("alice")
	if err := alice.Grant(ctx, "alice", 100); err == nil {
		t.Fatal("non-admin grant accepted")
	}
	if err := alice.SetState(ctx, "", "v"); err == nil {
		t.Fatal("empty state key accepted")
	}
	if ops := journaled(t, dir); len(ops) != 0 {
		t.Fatalf("rejected RPCs journaled: %+v", ops)
	}
}

// TestRecoveredDeploymentAccruesThroughFlows pins what condor's rebind
// relies on: RestoreState restores the fair-share accounts before the
// pools, so the usage flow a re-bound job reopens feeds the restored
// account (a flow opened first would feed an account Restore then
// replaces). The tenant's usage keeps growing at the job's rate while it
// runs, and the pools sleep through those ticks.
func TestRecoveredDeploymentAccruesThroughFlows(t *testing.T) {
	cfg := durableConfig()
	cfg.FairShare = &fairshare.Config{HalfLife: -1} // exact accounting
	g1 := New(cfg)
	if _, err := g1.Client("alice").Submit(context.Background(), specOf("p-long", 5000)); err != nil {
		t.Fatal(err)
	}
	g1.Run(50 * time.Second)
	st, err := g1.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	g2 := New(cfg)
	if err := g2.RestoreState(g1.Now(), &st); err != nil {
		t.Fatal(err)
	}
	u0, wakes0 := g2.FairShare.Usage("alice"), g2.Telemetry.Snapshot().Total("pool_wakes_total")
	g2.Run(1000 * time.Second)
	if grew := g2.FairShare.Usage("alice") - u0; grew < 999 || grew > 1001 {
		t.Errorf("usage grew by %v over 1000 s of a recovered running job, want ≈1000", grew)
	}
	if wakes := g2.Telemetry.Snapshot().Total("pool_wakes_total") - wakes0; wakes > 4 {
		t.Errorf("recovered pools woke %v times over 1000 ticks with nothing to do", wakes)
	}
}

// TestSurplusArgumentsAreRejectedAndNotJournaled: steering.move takes two
// or three parameters and steering.preference none or one. Both are
// journaled mutations, so one call more must be a FaultInvalidParams that
// reaches neither the service nor the journal, not a call that drops the
// surplus and applies the rest.
func TestSurplusArgumentsAreRejectedAndNotJournaled(t *testing.T) {
	ctx := context.Background()
	g, c := startGAE(t, durableConfig())
	g.Steering.AutoSteer = false
	dir := t.TempDir()
	s, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Scheduler.Submit(primePlan("alice", "p1", 300)); err != nil {
		t.Fatal(err)
	}
	g.Run(5 * time.Second)
	before, err := callAs[map[string]any](ctx, c, "steering.status", "p1", "main")
	if err != nil {
		t.Fatal(err)
	}
	target := "siteB"
	if before["site"] == "siteB" {
		target = "siteA"
	}
	seq := len(journaled(t, dir))
	if _, err := c.Call(ctx, "steering.move", "p1", "main", target, "surplus"); !xmlrpc.IsFault(err, xmlrpc.FaultInvalidParams) {
		t.Errorf("steering.move with four parameters: %v, want FaultInvalidParams", err)
	}
	if _, err := c.Call(ctx, "steering.preference", "cheap", "surplus"); !xmlrpc.IsFault(err, xmlrpc.FaultInvalidParams) {
		t.Errorf("steering.preference with two parameters: %v, want FaultInvalidParams", err)
	}
	after, err := callAs[map[string]any](ctx, c, "steering.status", "p1", "main")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(journaled(t, dir)); got != seq || after["site"] != before["site"] {
		t.Fatalf("rejected calls journaled %d ops and left the task at %v (was %v)", got-seq, after["site"], before["site"])
	}
	// The legal counts still apply and journal.
	if _, err := c.Call(ctx, "steering.move", "p1", "main", target); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(ctx, "steering.preference", "cheap"); err != nil {
		t.Fatal(err)
	}
	if got := len(journaled(t, dir)); got != seq+2 {
		t.Fatalf("two accepted mutations journaled %d ops", got-seq)
	}
}

// TestReplicaAtUnknownSiteIsRejected: a catalog entry at a site the grid
// does not have cannot be restored, so registering one is an error and
// the deployment stays recoverable — from its journal alone, then from
// the checkpoint taken after that recovery.
func TestReplicaAtUnknownSiteIsRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	ctx := context.Background()
	start := func() (*GAE, *durable.Store) {
		t.Helper()
		g := New(cfg)
		s, err := durable.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AttachStore(s); err != nil {
			t.Fatal(err)
		}
		return g, s
	}
	g1, s1 := start()
	alice := g1.Client("alice")
	if err := alice.RegisterReplica(ctx, "ds", "nowhere", 1); err == nil {
		t.Fatal("replica at an unknown site accepted")
	}
	if err := alice.RegisterReplica(ctx, "ds", "siteB", 1); err != nil {
		t.Fatal(err)
	}
	want := encodeState(t, g1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	g2, s2 := start()
	if got := encodeState(t, g2); !bytes.Equal(want, got) {
		diffLines(t, want, got)
	}
	if err := g2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	g3, s3 := start()
	defer s3.Close()
	if got := encodeState(t, g3); !bytes.Equal(want, got) {
		diffLines(t, want, got)
	}
}

// TestDuplicatePlanInSnapshotIsRejected: a snapshot whose plans section
// names one plan twice does not restore. The scheduler registers a plan
// name once, restored or submitted, so the second entry is refused rather
// than scheduled beside the first where nothing could reach it by name.
func TestDuplicatePlanInSnapshotIsRejected(t *testing.T) {
	g := New(twoSiteConfig())
	spec, err := json.Marshal(specOf("twice", 30))
	if err != nil {
		t.Fatal(err)
	}
	plan := durable.PlanState{Name: "twice", Owner: "alice", Spec: spec}
	st := durable.State{Plans: []durable.PlanState{plan, plan}}
	err = g.RestoreState(g.Now(), &st)
	if err == nil || !strings.Contains(err.Error(), "already submitted") {
		t.Fatalf("RestoreState of a plan named twice: err = %v, want already submitted", err)
	}
}

// TestNonFiniteDoubleIsAFault: a document carrying a NaN or infinite
// double is a parse fault before any service sees it — nothing applies, nothing
// journals, the durability-loss hook stays quiet and the next checkpoint
// encodes.
func TestNonFiniteDoubleIsAFault(t *testing.T) {
	g := New(durableConfig())
	dir := t.TempDir()
	s, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := g.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	var lost error
	g.OnDurabilityLoss(func(err error) { lost = err })
	for _, x := range []string{"NaN", "Inf", "-Inf"} {
		doc := `<methodCall><methodName>replica.register</methodName><params>` +
			`<param><value><string>ds</string></value></param>` +
			`<param><value><string>siteB</string></value></param>` +
			`<param><value><double>` + x + `</double></value></param></params></methodCall>`
		var v any
		err := xmlrpc.DecodeResponseInto(bytes.NewReader(serveDoc(t, g, []byte(doc))), &v)
		if !xmlrpc.IsFault(err, xmlrpc.FaultParse) {
			t.Errorf("size %s: %v, want a parse fault", x, err)
		}
	}
	if lost != nil {
		t.Fatalf("durability-loss hook fired: %v", lost)
	}
	if got, ops := g.Replicas.Locations("ds"), journaled(t, dir); len(got) != 0 || len(ops) != 0 {
		t.Fatalf("a rejected call applied %+v and journaled %d ops", got, len(ops))
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}
