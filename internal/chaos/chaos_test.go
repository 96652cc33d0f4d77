package chaos

import (
	"context"
	"net"
	"net/http"
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

func serverConfig() core.Config {
	// Two sites with a link: the workload's move ops redirect tasks with
	// no explicit target, and the scheduler always excludes the current
	// site, so a second site must exist for a move to land anywhere.
	return core.Config{
		Seed: 11,
		Sites: []core.SiteSpec{
			{Name: "siteA", Nodes: 2, CostPerCPUSecond: 0.1},
			{Name: "siteB", Nodes: 2, CostPerCPUSecond: 0.1},
		},
		Links: []core.LinkSpec{{A: "siteA", B: "siteB", MBps: 10, LatencyMS: 5}},
		Users: []core.UserSpec{{Name: "alice", Password: "pw", Credits: 100, Admin: true}},
	}
}

func (ts *testServer) start() (string, error) {
	g := core.New(serverConfig())
	store, err := durable.Open(ts.dir)
	if err != nil {
		return "", err
	}
	if err := g.AttachStore(store); err != nil {
		store.Close()
		return "", err
	}
	g.Clarens.SetBaseURL(ts.url)
	srv := &http.Server{Handler: g.Handler()}
	go srv.Serve(&instanceListener{sharedListener: ts.ln, done: make(chan struct{})}) //nolint:errcheck // returns when killed
	ts.mu.Lock()
	ts.g, ts.store, ts.srv = g, store, srv
	ts.mu.Unlock()
	return ts.url, nil
}

func (ts *testServer) kill() error {
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
		cl, err := gae.Dial(ctx, url, gae.WithCredentials("alice", "pw"))
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
	if _, err := ts.start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ts.kill() })
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
		URL:     ts.url,
		User:    "alice",
		Pass:    "pw",
		Workers: 3,
		Ops:     12,
		Kills:   2,
		Faults:  Faults{Seed: 1, DropProb: 0.05, AckLossProb: 0.10, DupProb: 0.10},
		Nonce:   "run1",
		Retry: gae.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
			// Keep the breaker out of the way: the outer
			// retry-until-acked loop is the availability mechanism here.
			BreakerThreshold: 1000,
		},
		Control: ServerControl{Kill: ts.kill, Start: ts.start},
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
	cl, err := gae.Dial(ctx, ts.url, gae.WithCredentials("alice", "pw"))
	if err != nil {
		t.Fatal(err)
	}
	rctx := gae.WithRequestID(ctx, "dup-grant-1")
	if err := cl.Grant(rctx, "alice", GrantAmount); err != nil {
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
	if err := ts.kill(); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.start(); err != nil {
		t.Fatal(err)
	}

	cl2 := dialRetry(t, ctx, ts.url)
	if err := cl2.Grant(gae.WithRequestID(ctx, "dup-grant-1"), "alice", GrantAmount); err != nil {
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
