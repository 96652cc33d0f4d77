package chaos

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/pkg/gae"
)

// testServer runs a crash-recoverable deployment in-process. kill is
// the crash stand-in: the instance stops accepting and its connections
// close immediately (no drain), and the store closes without a
// checkpoint, leaving a stale-or-absent snapshot plus a live journal tail
// — exactly what a SIGKILL leaves on disk.
//
// The socket outlives the instances: the test server holds one listener
// for its whole life and serves each instance's handler on it, so a
// restart comes back at the same endpoint without re-binding a port that
// another package's test may have taken in between.
type testServer struct {
	t   *testing.T
	dir string
	ln  *sharedListener
	url string

	mu    sync.Mutex
	g     *core.GAE
	store *durable.Store
	srv   *http.Server
}

// sharedListener is the test server's one socket. An accept loop hands
// each connection to whichever instance is serving; one that arrives
// while none is waits for the next, as it would in the kernel's backlog.
type sharedListener struct {
	net.Listener
	conns chan net.Conn
	stop  chan struct{}
}

func listenShared(t *testing.T) *sharedListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &sharedListener{Listener: ln, conns: make(chan net.Conn), stop: make(chan struct{})}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			select {
			case s.conns <- c:
			case <-s.stop:
				c.Close()
				return
			}
		}
	}()
	t.Cleanup(func() {
		close(s.stop)
		ln.Close()
	})
	return s
}

// instanceListener is one instance's view of the shared socket: closing
// it, as the instance's http.Server does when killed, ends that
// instance's accepting and leaves the socket open.
type instanceListener struct {
	*sharedListener
	done chan struct{}
	once sync.Once
}

func (l *instanceListener) Accept() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, net.ErrClosed
	default:
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *instanceListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// serverConfig is the deployment the launcher runs, harnessFile: two
// sites with a link, because the workload's move ops redirect tasks with
// no explicit target, and the scheduler always excludes the current site,
// so a second site must exist for a move to land anywhere.
func serverConfig() (core.Config, error) {
	return core.LoadDeployment(filepath.Join("..", "..", harnessFile))
}

// TestHarnessFileAdminIsTheHarnessUser: the harness logs in as User and
// grants to itself, which only the deployment's administrator may do.
func TestHarnessFileAdminIsTheHarnessUser(t *testing.T) {
	cfg, err := serverConfig()
	if err != nil {
		t.Fatal(err)
	}
	var admins []core.UserSpec
	for _, u := range cfg.Users {
		if u.Admin {
			admins = append(admins, u)
		}
	}
	if len(admins) != 1 || admins[0].Name != User || admins[0].Password != Pass {
		t.Fatalf("admins %+v, want only %s with the harness password", admins, User)
	}
}

func (ts *testServer) URL() string { return ts.url }

func (ts *testServer) Start() error {
	cfg, err := serverConfig()
	if err != nil {
		return err
	}
	g := core.New(cfg)
	store, err := durable.Open(ts.dir)
	if err != nil {
		return err
	}
	if err := g.AttachStore(store); err != nil {
		store.Close()
		return err
	}
	g.Clarens.SetBaseURL(ts.url)
	srv := &http.Server{Handler: g.Handler()}
	go srv.Serve(&instanceListener{sharedListener: ts.ln, done: make(chan struct{})}) //nolint:errcheck // returns when killed
	ts.mu.Lock()
	ts.g, ts.store, ts.srv = g, store, srv
	ts.mu.Unlock()
	return nil
}

func (ts *testServer) Kill() error {
	ts.mu.Lock()
	srv, store := ts.srv, ts.store
	ts.mu.Unlock()
	if err := srv.Close(); err != nil {
		return err
	}
	return store.Close()
}

func (ts *testServer) current() *core.GAE {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.g
}

// dialRetry dials until the freshly restarted endpoint answers — the
// shared HTTP connection pool can hold connections a kill severed.
func dialRetry(t *testing.T, ctx context.Context, url string) *gae.Client {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl, err := gae.Dial(ctx, url, gae.WithCredentials(User, Pass))
		if err == nil {
			return cl
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", url, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func startTestServer(t *testing.T) *testServer {
	t.Helper()
	ts := &testServer{t: t, dir: t.TempDir(), ln: listenShared(t)}
	ts.url = "http://" + ts.ln.Addr().String()
	if err := ts.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ts.Kill() })
	return ts
}

// TestChaosExactlyOnceAcrossKills is the headline invariant check:
// concurrent clients push mutations through a faulty transport (drops,
// ack losses, duplicates) while the server is killed -9 and restarted
// mid-load, and reconciliation of the client acked-op log against the
// recovered state must find zero lost acked ops and zero double
// applies.
func TestChaosExactlyOnceAcrossKills(t *testing.T) {
	ts := startTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{
		Server:  ts,
		Workers: 3,
		Ops:     12,
		Kills:   2,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("exactly-once violated:\n lost acked: %v\n double applied: %v", rep.LostAcked, rep.DoubleApplied)
	}
	if want := 3 * 12; rep.AckedOps != want {
		t.Fatalf("acked %d ops, want %d", rep.AckedOps, want)
	}
	if rep.Faults.Calls == 0 {
		t.Fatal("fault transport saw no traffic; the run exercised nothing")
	}
	t.Logf("acked=%d attempts=%d faults=%+v", rep.AckedOps, rep.Attempts, rep.Faults)
}

// TestDuplicateSuppressedAcrossCheckpointRestart pins the acceptance
// criterion directly: a mutation is acknowledged, the server
// checkpoints and restarts, and only then does the duplicate (same
// request ID, over the wire) arrive — it must be suppressed by the
// window recovered from the snapshot.
func TestDuplicateSuppressedAcrossCheckpointRestart(t *testing.T) {
	ts := startTestServer(t)
	ctx := context.Background()
	cl, err := gae.Dial(ctx, ts.url, gae.WithCredentials(User, Pass))
	if err != nil {
		t.Fatal(err)
	}
	rctx := gae.WithRequestID(ctx, "dup-grant-1")
	if err := cl.Grant(rctx, User, GrantAmount); err != nil {
		t.Fatal(err)
	}
	before, err := cl.Balance(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint, then crash and recover: the duplicate-suppression
	// window must ride the snapshot, not just server memory.
	if err := ts.current().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Start(); err != nil {
		t.Fatal(err)
	}

	cl2 := dialRetry(t, ctx, ts.url)
	if err := cl2.Grant(gae.WithRequestID(ctx, "dup-grant-1"), User, GrantAmount); err != nil {
		t.Fatalf("retried grant after restart: %v, want deduplicated success", err)
	}
	after, err := cl2.Balance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("balance %v after duplicate, want %v (grant must not re-apply)", after, before)
	}
}

// TestOnlyTheArmedFaultCrashRestarts: the launcher's watchdog restarts a
// server only after the crash its armed journal fault causes; every other
// exit it did not cause ends the run.
func TestOnlyTheArmedFaultCrashRestarts(t *testing.T) {
	for _, tc := range []struct {
		armed  bool
		status int
		what   string
		want   bool
	}{
		{true, durabilityLost, "the armed fault's durability-lost exit", true},
		{false, durabilityLost, "durability lost with no fault armed", false},
		{true, 2, "a panic in an armed lifetime", false},
		{false, 2, "a panic", false},
		{true, 0, "a clean exit", false},
		{true, 1, "log.Fatal", false},
		{true, -1, "a signal", false},
	} {
		if got := faultCrash(tc.armed, tc.status); got != tc.want {
			t.Errorf("%s (armed %v, status %d): restart = %v, want %v", tc.what, tc.armed, tc.status, got, tc.want)
		}
	}
}

// TestKilledLifetimeGivesItsFaultBack: a faulted lifetime that Kill ended
// before its fault crashed it hands the fault to the next launch; one the
// fault crashed, or one that armed nothing, hands nothing back.
func TestKilledLifetimeGivesItsFaultBack(t *testing.T) {
	for _, tc := range []struct {
		armed, killed bool
		status        int
		what          string
		want          bool
	}{
		{true, true, -1, "an armed lifetime killed before its fault fired", true},
		{true, true, 0, "an armed lifetime that exited cleanly as Kill signalled", true},
		{true, true, durabilityLost, "an armed lifetime the fault crashed as Kill signalled", false},
		{true, false, durabilityLost, "the armed fault's own crash", false},
		{true, false, 2, "a panic in an armed lifetime", false},
		{false, true, -1, "a killed lifetime that armed nothing", false},
		{false, false, durabilityLost, "durability lost with no fault armed", false},
	} {
		if got := faultUnspent(tc.armed, tc.killed, tc.status); got != tc.want {
			t.Errorf("%s (armed %v, killed %v, status %d): gives back = %v, want %v", tc.what, tc.armed, tc.killed, tc.status, got, tc.want)
		}
	}
}
