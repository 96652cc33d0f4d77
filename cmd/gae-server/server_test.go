package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clarens"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

func testConfig() core.Config {
	return core.Config{
		Sites: []core.SiteSpec{{Name: "siteA", Nodes: 2, CostPerCPUSecond: 0.1}},
		Users: []core.UserSpec{{Name: "alice", Password: "pw", Credits: 100, Admin: true}},
	}
}

// TestGracefulShutdown drives the full server lifecycle: serve over
// XML-RPC, accept traffic, Shutdown (the SIGINT/SIGTERM hook), and
// verify Run exits cleanly having checkpointed the drained state.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(core.New(testConfig()), dir)
	if err != nil {
		t.Fatal(err)
	}
	url, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()

	ctx := context.Background()
	client, err := gae.Dial(ctx, url, gae.WithCredentials("alice", "pw"))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SetState(ctx, "survives", "shutdown"); err != nil {
		t.Fatal(err)
	}

	srv.Shutdown()
	srv.Shutdown() // idempotent
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v, want clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after Shutdown")
	}

	// The final checkpoint landed: the snapshot alone carries the state.
	raw, err := os.ReadFile(filepath.Join(dir, durable.SnapshotFile))
	if err != nil {
		t.Fatalf("no final snapshot: %v", err)
	}
	snap, err := durable.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.State.UserState["alice"]["survives"]; got != "shutdown" {
		t.Fatalf("snapshot user state = %q, want %q", got, "shutdown")
	}
}

// TestServerRecoversAcrossRestart restarts a server on the same data
// directory and checks the recovered deployment serves the pre-restart
// state.
func TestServerRecoversAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv1, err := NewServer(core.New(testConfig()), dir)
	if err != nil {
		t.Fatal(err)
	}
	url, err := srv1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv1.Run() }()
	c1, err := gae.Dial(ctx, url, gae.WithCredentials("alice", "pw"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.SetState(ctx, "dataset", "zmumu-2005"); err != nil {
		t.Fatal(err)
	}
	if err := c1.Grant(ctx, "alice", 50); err != nil {
		t.Fatal(err)
	}
	srv1.Shutdown()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	srv2, err := NewServer(core.New(testConfig()), dir)
	if err != nil {
		t.Fatal(err)
	}
	url2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Run() }()
	c2, err := gae.Dial(ctx, url2, gae.WithCredentials("alice", "pw"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c2.GetState(ctx, "dataset"); err != nil || got != "zmumu-2005" {
		t.Fatalf("recovered state = %q, %v", got, err)
	}
	if bal, err := c2.Balance(ctx); err != nil || bal != 150 {
		t.Fatalf("recovered balance = %v, %v (want 150)", bal, err)
	}
	srv2.Shutdown()
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
}

// TestDrainTimeoutForcesExit pins the bounded drain: a drain wedged
// behind a stuck checkpoint (the test barrier stands in for it) must
// not hang Run forever — past DrainTimeout it returns ErrDrainTimeout,
// which main turns into a nonzero exit. While draining, new RPCs are
// shed with the retryable FaultUnavailable.
func TestDrainTimeoutForcesExit(t *testing.T) {
	srv, err := NewServer(core.New(testConfig()), "")
	if err != nil {
		t.Fatal(err)
	}
	url, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	unblock := make(chan struct{})
	t.Cleanup(func() { close(unblock) })
	srv.drainBarrier = func() { <-unblock }
	srv.DrainTimeout = 50 * time.Millisecond
	srv.Shutdown()
	if err := srv.Run(); !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Run = %v, want ErrDrainTimeout", err)
	}

	// The wedged drain left the listener up but draining: calls are
	// rejected with the retryable unavailable fault, not served.
	cc := clarens.NewClient(url)
	if _, err := cc.Call(context.Background(), "system.ping"); !xmlrpc.IsFault(err, xmlrpc.FaultUnavailable) {
		t.Fatalf("call while draining: %v, want FaultUnavailable", err)
	}
}
