package gae_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/clarens"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

// idStub is a Clarens endpoint that records the method and request-ID
// header of every call it receives. It answers the first unavailable
// calls with FaultUnavailable (retryable), every other call with an
// application fault, or with true when ok is set.
type idStub struct {
	mu          sync.Mutex
	calls       []stubCall
	unavailable int
	ok          bool
}

type stubCall struct{ method, rid string }

func (s *idStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := xmlrpc.DecodeRequest(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, stubCall{req.Method, r.Header.Get(clarens.RequestIDHeader)})
	switch {
	case s.unavailable > 0:
		s.unavailable--
		w.Write(xmlrpc.EncodeFault(xmlrpc.NewFault(xmlrpc.FaultUnavailable, "draining")))
	case s.ok:
		body, _ := xmlrpc.EncodeResponse(true)
		w.Write(body)
	default:
		w.Write(xmlrpc.EncodeFault(xmlrpc.NewFault(xmlrpc.FaultApplication, "stub")))
	}
}

func (s *idStub) last() stubCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[len(s.calls)-1]
}

func dialStub(t *testing.T, stub *idStub, opts ...gae.Option) *gae.Client {
	t.Helper()
	hs := httptest.NewServer(stub)
	t.Cleanup(hs.Close)
	c, err := gae.Dial(context.Background(), hs.URL, append(opts, gae.WithToken("t"))...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

type remoteCall struct {
	method string
	call   func(ctx context.Context, c *gae.Client) error
}

// mutations is one call of each of the twelve mutating remote methods.
var mutations = []remoteCall{
	{"scheduler.submit", func(ctx context.Context, c *gae.Client) error {
		_, err := c.Submit(ctx, gae.PlanSpec{Name: "p"})
		return err
	}},
	{"steering.kill", func(ctx context.Context, c *gae.Client) error { return c.Kill(ctx, "p", "t") }},
	{"steering.pause", func(ctx context.Context, c *gae.Client) error { return c.Pause(ctx, "p", "t") }},
	{"steering.resume", func(ctx context.Context, c *gae.Client) error { return c.Resume(ctx, "p", "t") }},
	{"steering.move", func(ctx context.Context, c *gae.Client) error { _, err := c.Move(ctx, "p", "t", ""); return err }},
	{"steering.setpriority", func(ctx context.Context, c *gae.Client) error { return c.SetPriority(ctx, "p", "t", 3) }},
	{"steering.preference", func(ctx context.Context, c *gae.Client) error { _, err := c.SetPreference(ctx, "cheap"); return err }},
	{"state.set", func(ctx context.Context, c *gae.Client) error { return c.SetState(ctx, "k", "v") }},
	{"state.delete", func(ctx context.Context, c *gae.Client) error { _, err := c.DeleteState(ctx, "k"); return err }},
	{"replica.register", func(ctx context.Context, c *gae.Client) error { return c.RegisterReplica(ctx, "d", "siteA", 1) }},
	{"quota.grant", func(ctx context.Context, c *gae.Client) error { return c.Grant(ctx, "alice", 1) }},
	{"quota.charge", func(ctx context.Context, c *gae.Client) error {
		_, err := c.ChargeUsage(ctx, gae.ChargeRequest{User: "alice", Site: "siteA"})
		return err
	}},
}

// reads is one call of every read-only remote method.
var reads = []remoteCall{
	{"scheduler.plan", func(ctx context.Context, c *gae.Client) error { _, err := c.Plan(ctx, "p"); return err }},
	{"scheduler.sites", func(ctx context.Context, c *gae.Client) error { _, err := c.Sites(ctx); return err }},
	{"steering.jobs", func(ctx context.Context, c *gae.Client) error { _, err := c.Jobs(ctx); return err }},
	{"steering.status", func(ctx context.Context, c *gae.Client) error { _, err := c.TaskStatus(ctx, "p", "t"); return err }},
	{"steering.estimate", func(ctx context.Context, c *gae.Client) error {
		_, err := c.EstimateCompletion(ctx, "p", "t")
		return err
	}},
	{"steering.notifications", func(ctx context.Context, c *gae.Client) error { _, err := c.Notifications(ctx); return err }},
	{"steering.preference", func(ctx context.Context, c *gae.Client) error { _, err := c.Preference(ctx); return err }},
	{"jobmon.info", func(ctx context.Context, c *gae.Client) error { _, err := c.Job(ctx, "siteA", 1); return err }},
	{"jobmon.status", func(ctx context.Context, c *gae.Client) error { _, err := c.JobStatus(ctx, "siteA", 1); return err }},
	{"jobmon.progress", func(ctx context.Context, c *gae.Client) error { _, err := c.JobProgress(ctx, "siteA", 1); return err }},
	{"jobmon.wallclock", func(ctx context.Context, c *gae.Client) error { _, err := c.JobWallclock(ctx, "siteA", 1); return err }},
	{"jobmon.elapsed", func(ctx context.Context, c *gae.Client) error { _, err := c.JobElapsed(ctx, "siteA", 1); return err }},
	{"jobmon.remaining", func(ctx context.Context, c *gae.Client) error { _, err := c.JobRemaining(ctx, "siteA", 1); return err }},
	{"jobmon.queueposition", func(ctx context.Context, c *gae.Client) error {
		_, err := c.JobQueuePosition(ctx, "siteA", 1)
		return err
	}},
	{"jobmon.list", func(ctx context.Context, c *gae.Client) error { _, err := c.JobList(ctx, "siteA"); return err }},
	{"jobmon.pools", func(ctx context.Context, c *gae.Client) error { _, err := c.Pools(ctx); return err }},
	{"estimator.runtime", func(ctx context.Context, c *gae.Client) error {
		_, err := c.EstimateRuntime(ctx, "siteA", gae.TaskProfile{})
		return err
	}},
	{"estimator.queuetime", func(ctx context.Context, c *gae.Client) error {
		_, err := c.EstimateQueueTime(ctx, "siteA", 1)
		return err
	}},
	{"estimator.transfer", func(ctx context.Context, c *gae.Client) error {
		_, err := c.EstimateTransfer(ctx, "siteA", "siteB", 1)
		return err
	}},
	{"quota.balance", func(ctx context.Context, c *gae.Client) error { _, err := c.Balance(ctx); return err }},
	{"quota.cost", func(ctx context.Context, c *gae.Client) error { _, err := c.Cost(ctx, "siteA", 1, 1); return err }},
	{"quota.cheapest", func(ctx context.Context, c *gae.Client) error {
		_, err := c.Cheapest(ctx, []string{"siteA"}, 1, 1)
		return err
	}},
	{"replica.datasets", func(ctx context.Context, c *gae.Client) error { _, err := c.Datasets(ctx); return err }},
	{"replica.locations", func(ctx context.Context, c *gae.Client) error { _, err := c.Replicas(ctx, "d"); return err }},
	{"replica.best", func(ctx context.Context, c *gae.Client) error { _, err := c.BestReplica(ctx, "d", "siteA"); return err }},
	{"monitor.latest", func(ctx context.Context, c *gae.Client) error {
		_, err := c.Latest(ctx, "siteA", "LoadAvg")
		return err
	}},
	{"monitor.series", func(ctx context.Context, c *gae.Client) error {
		_, err := c.Series(ctx, "siteA", "LoadAvg", 60)
		return err
	}},
	{"monitor.metrics", func(ctx context.Context, c *gae.Client) error { _, err := c.Metrics(ctx); return err }},
	{"monitor.events", func(ctx context.Context, c *gae.Client) error { _, err := c.Events(ctx, "", 60); return err }},
	{"monitor.sites", func(ctx context.Context, c *gae.Client) error { _, err := c.Weather(ctx); return err }},
	{"state.get", func(ctx context.Context, c *gae.Client) error { _, err := c.GetState(ctx, "k"); return err }},
	{"state.keys", func(ctx context.Context, c *gae.Client) error { _, err := c.StateKeys(ctx); return err }},
}

// TestRemoteRequestIDs: the remote transport sends a request ID with each
// of its twelve mutating methods — a fresh one per logical call, or the
// one WithRequestID pinned, verbatim — and never with a read.
func TestRemoteRequestIDs(t *testing.T) {
	stub := &idStub{}
	c := dialStub(t, stub)
	ctx := context.Background()
	seen := make(map[string]bool)
	for _, m := range mutations {
		if err := m.call(ctx, c); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
			t.Fatalf("%s: %v, want the stub's fault", m.method, err)
		}
		got := stub.last()
		if got.method != m.method || got.rid == "" || seen[got.rid] {
			t.Errorf("%s went out as %s with request ID %q, want a fresh one", m.method, got.method, got.rid)
		}
		seen[got.rid] = true

		if err := m.call(gae.WithRequestID(ctx, "pinned-"+m.method), c); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
			t.Fatalf("%s: %v, want the stub's fault", m.method, err)
		}
		if got := stub.last(); got.rid != "pinned-"+m.method {
			t.Errorf("%s under a pinned ID sent %q", m.method, got.rid)
		}
	}
	for _, r := range reads {
		for _, rctx := range []context.Context{ctx, gae.WithRequestID(ctx, "pinned-read")} {
			if err := r.call(rctx, c); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
				t.Fatalf("%s: %v, want the stub's fault", r.method, err)
			}
			if got := stub.last(); got.method != r.method || got.rid != "" {
				t.Errorf("read %s went out as %s with request ID %q", r.method, got.method, got.rid)
			}
		}
	}
}

// TestRetryResendsRequestID: under a retry policy, a mutation whose first
// attempt fails is re-sent with the ID its first attempt carried.
func TestRetryResendsRequestID(t *testing.T) {
	stub := &idStub{unavailable: 1, ok: true}
	c := dialStub(t, stub, gae.WithRetryPolicy(gae.RetryPolicy{BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}))
	if err := c.SetState(context.Background(), "k", "v"); err != nil {
		t.Fatal(err)
	}
	if len(stub.calls) != 2 || stub.calls[0].rid == "" || stub.calls[1] != stub.calls[0] {
		t.Fatalf("attempts %+v, want two state.set calls under one request ID", stub.calls)
	}
}
