package gae_test

import (
	"bytes"
	"context"
	"io"
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

type stubCall struct {
	method, rid string
	body        []byte
}

func (s *idStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := xmlrpc.DecodeRequest(bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, stubCall{req.Method, r.Header.Get(clarens.RequestIDHeader), body})
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

// TestRemoteRequestIDs: every row has a sample call, and the remote
// transport sends a request ID with each call of a mutating row — a fresh
// one per logical call, or the one WithRequestID pinned, verbatim — and
// never with a read.
func TestRemoteRequestIDs(t *testing.T) {
	stub := &idStub{}
	c := dialStub(t, stub)
	ctx := context.Background()
	seen := make(map[string]bool)
	rows := make(map[string]bool)
	for _, m := range gae.Methods() {
		rows[m.Op] = true
		if len(samples[m.Op]) == 0 {
			t.Errorf("row %s has no sample call", m.Op)
		}
		for _, call := range samples[m.Op] {
			if err := call(ctx, c); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
				t.Fatalf("%s: %v, want the stub's fault", m.Op, err)
			}
			got := stub.last()
			if stamped := got.rid != ""; got.method != m.Name || stamped != m.Mutates || stamped && seen[got.rid] {
				t.Errorf("%s (mutates: %v) went out as %s with request ID %q", m.Op, m.Mutates, got.method, got.rid)
			}
			seen[got.rid] = true

			if err := call(gae.WithRequestID(ctx, "pinned-"+m.Op), c); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
				t.Fatalf("%s: %v, want the stub's fault", m.Op, err)
			}
			want := ""
			if m.Mutates {
				want = "pinned-" + m.Op
			}
			if got := stub.last().rid; got != want {
				t.Errorf("%s (mutates: %v) under a pinned ID sent %q", m.Op, m.Mutates, got)
			}
		}
	}
	for op := range samples {
		if !rows[op] {
			t.Errorf("sample %s names no row", op)
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
	if len(stub.calls) != 2 || stub.calls[0].rid == "" || stub.calls[1].rid != stub.calls[0].rid || stub.calls[1].method != "state.set" {
		t.Fatalf("attempts %+v, want two state.set calls under one request ID", stub.calls)
	}
}
