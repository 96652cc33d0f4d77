package clarens

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/xmlrpc"
)

// TestDispatchCheckOrder pins the order in which a host refuses a call,
// and each refusal's code and text: an unknown method first, whoever asks
// and whatever the host's state; then a draining host; then the session
// and ACL check. system.listMethods and system.ping are public, so only
// the drain refuses them.
func TestDispatchCheckOrder(t *testing.T) {
	srv := NewServer("testhost", nil)
	for _, u := range []string{"alice", "bob"} {
		if err := srv.Users.Add(u, "pw"); err != nil {
			t.Fatal(err)
		}
	}
	srv.RegisterService("demo", "demo service", map[string]xmlrpc.Handler{
		"echo": func(context.Context, []any) (any, error) { return "echoed", nil },
	})
	srv.ACL.Allow("alice", "demo.*")
	hs := httptest.NewServer(srv)
	defer hs.Close()
	ctx := context.Background()
	callers := map[string]*Client{"none": NewClient(hs.URL)}
	for _, u := range []string{"alice", "bob"} {
		c := NewClient(hs.URL)
		if err := c.Login(ctx, u, "pw"); err != nil {
			t.Fatal(err)
		}
		callers[u] = c
	}

	const (
		ok          = 0
		notFound    = xmlrpc.FaultMethodNotFound
		unavailable = xmlrpc.FaultUnavailable
		auth        = xmlrpc.FaultAuth
	)
	type want struct {
		code int
		text string
	}
	draining := want{unavailable, "host testhost is draining"}
	for _, tc := range []struct {
		method, caller string
		draining       bool
		want           want
	}{
		{"demo.nope", "none", false, want{notFound, `no such method "demo.nope"`}},
		{"demo.nope", "bob", false, want{notFound, `no such method "demo.nope"`}},
		{"demo.nope", "alice", false, want{notFound, `no such method "demo.nope"`}},
		{"demo.nope", "none", true, want{notFound, `no such method "demo.nope"`}},
		{"demo.nope", "bob", true, want{notFound, `no such method "demo.nope"`}},
		{"demo.nope", "alice", true, want{notFound, `no such method "demo.nope"`}},
		{"demo.echo", "none", false, want{auth, "method demo.echo requires authentication"}},
		{"demo.echo", "bob", false, want{auth, "user bob may not call demo.echo"}},
		{"demo.echo", "alice", false, want{ok, "echoed"}},
		{"demo.echo", "none", true, draining},
		{"demo.echo", "bob", true, draining},
		{"demo.echo", "alice", true, draining},
		{"system.ping", "none", false, want{ok, "testhost"}},
		{"system.ping", "bob", false, want{ok, "testhost"}},
		{"system.ping", "none", true, draining},
		{"system.ping", "alice", true, draining},
		{"system.listMethods", "none", false, want{ok, ""}},
		{"system.listMethods", "bob", false, want{ok, ""}},
		{"system.listMethods", "none", true, draining},
		{"system.listMethods", "alice", true, draining},
	} {
		srv.SetDraining(tc.draining)
		res, err := callers[tc.caller].Call(ctx, tc.method)
		var got want
		if f, isFault := xmlrpc.AsFault(err); isFault {
			got = want{f.Code, f.Message}
		} else if err != nil {
			t.Fatalf("%s by %s (draining %v): %v", tc.method, tc.caller, tc.draining, err)
		} else if s, isString := res.(string); isString {
			got.text = s
		}
		if got != tc.want {
			t.Errorf("%s by %s (draining %v) = %d %q, want %d %q",
				tc.method, tc.caller, tc.draining, got.code, got.text, tc.want.code, tc.want.text)
		}
	}
}

// TestHostTablesBesideCalls: registrations, HTTP mounts, peers and a
// base URL change while calls read the same tables; run under -race.
func TestHostTablesBesideCalls(t *testing.T) {
	srv := NewServer("host", nil)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				name := fmt.Sprintf("svc%d-%d", w, i)
				srv.RegisterService(name, "", map[string]xmlrpc.Handler{
					"m": func(context.Context, []any) (any, error) { return nil, nil },
				})
				srv.HandleHTTP("/"+name, http.NotFoundHandler())
				srv.AddPeer("http://" + name)
				srv.SetBaseURL("http://" + name)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, call := range []struct {
				method string
				args   []any
			}{{"system.listMethods", nil}, {"registry.list", nil}, {"registry.peers", nil}, {"registry.lookup", []any{"svc0-0"}}} {
				for range 50 {
					body, err := xmlrpc.EncodeRequest(call.method, call.args)
					if err != nil {
						t.Error(err)
						return
					}
					srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
				}
			}
		}()
	}
	wg.Wait()
	if got := len(srv.listServices()); got != 200 {
		t.Fatalf("%d services registered, want 200", got)
	}
	for _, info := range srv.listServices() {
		if info.Endpoint != srv.BaseURL() {
			t.Fatalf("%s at %q after the last SetBaseURL to %q", info.Name, info.Endpoint, srv.BaseURL())
		}
	}
}

// hostJob mirrors gae.JobInfo's wire shape, so the host serves the
// monitoring reply the benchmark's read mix asks for most.
type hostJob struct {
	ID               int       `xmlrpc:"id"`
	Pool             string    `xmlrpc:"pool"`
	Status           string    `xmlrpc:"status"`
	Owner            string    `xmlrpc:"owner"`
	Cmd              string    `xmlrpc:"cmd"`
	Priority         int       `xmlrpc:"priority"`
	QueuePosition    int       `xmlrpc:"queue_position"`
	EstimatedRuntime float64   `xmlrpc:"estimated_runtime"`
	CPUSeconds       float64   `xmlrpc:"cpu_seconds"`
	Progress         float64   `xmlrpc:"progress"`
	Node             string    `xmlrpc:"node"`
	SubmitTime       time.Time `xmlrpc:"submit_time"`
}

// TestHostServeAllocCeiling gates what one jobmon.info call costs the
// host, net/http's connection handling apart: the session header read
// into the call's context, the session and ACL checks, the dispatch, and
// the codec's share (xmlrpc's TestServeAllocCeiling). The count repeats
// exactly.
func TestHostServeAllocCeiling(t *testing.T) {
	job := hostJob{ID: 4711, Pool: "siteA", Status: "running", Owner: "alice", Cmd: "cmsRun -p <cfg>",
		Priority: -3, QueuePosition: 2, EstimatedRuntime: 1234.5, CPUSeconds: 3141.59, Progress: 0.75,
		Node: "siteA-node-07", SubmitTime: time.Date(2005, 4, 15, 10, 30, 45, 0, time.UTC)}
	srv := NewServer("host", nil)
	if err := srv.Users.Add("alice", "pw"); err != nil {
		t.Fatal(err)
	}
	srv.RegisterService("jobmon", "job monitoring", map[string]xmlrpc.Handler{
		"info": func(context.Context, []any) (any, error) { return job, nil },
	})
	srv.ACL.Allow("authenticated", "jobmon.*")
	u, err := srv.Users.Verify("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Sessions.Open(u)
	if err != nil {
		t.Fatal(err)
	}
	body, err := xmlrpc.EncodeRequest("jobmon.info", []any{"siteA", 4711})
	if err != nil {
		t.Fatal(err)
	}
	want, err := xmlrpc.EncodeResponse(job)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/", rd)
	req.Header.Set(SessionHeader, sess.Token)
	rec := httptest.NewRecorder()
	serve := func() {
		rd.Reset(body)
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
	}
	serve()
	if !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Fatalf("served %s (Content-Length %s)\nwant %s", rec.Body.Bytes(), rec.Header().Get("Content-Length"), want)
	}
	if n := testing.AllocsPerRun(100, serve); n > hostServeAllocs && !raceEnabled {
		t.Errorf("one host ServeHTTP round for a JobInfo reply: %v allocations, ceiling %d", n, hostServeAllocs)
	}
}

// hostServeAllocs is the measured count (14 with the request read into a
// buffer of its own rather than a pooled one).
const hostServeAllocs = 13
