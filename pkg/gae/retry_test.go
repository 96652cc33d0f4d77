package gae_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/clarens"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

// failingTransport fails every request the same way — with err, a
// transport failure, or else with fault as the reply — and records the
// request ID each attempt carried. onCall, if set, runs first.
type failingTransport struct {
	err    error
	fault  *xmlrpc.Fault
	onCall func()

	mu   sync.Mutex
	rids []string
}

func (f *failingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	f.mu.Lock()
	f.rids = append(f.rids, r.Header.Get(clarens.RequestIDHeader))
	f.mu.Unlock()
	if f.onCall != nil {
		f.onCall()
	}
	if f.err != nil {
		return nil, f.err
	}
	body := xmlrpc.EncodeFault(f.fault)
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)), Request: r}, nil
}

func dialFailing(t *testing.T, f *failingTransport) *gae.Client {
	t.Helper()
	c, err := gae.Dial(context.Background(), "http://stub.invalid/",
		gae.WithTransport(f), gae.WithRetries(), gae.WithToken("t"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRetriesUpToTheBoundUnderOneRequestID: a transport failure and
// FaultUnavailable are tried three times, every attempt under the request
// ID of the first, and the last attempt's error is returned.
func TestRetriesUpToTheBoundUnderOneRequestID(t *testing.T) {
	for what, f := range map[string]*failingTransport{
		"transport failure": {err: errors.New("connection reset by peer")},
		"unavailable":       {fault: xmlrpc.NewFault(xmlrpc.FaultUnavailable, "draining")},
	} {
		c := dialFailing(t, f)
		err := c.SetState(context.Background(), "k", "v")
		if err == nil {
			t.Fatalf("%s: SetState succeeded", what)
		}
		if f.fault != nil && !xmlrpc.IsFault(err, f.fault.Code) {
			t.Errorf("%s: err = %v, want the unavailable fault", what, err)
		}
		if len(f.rids) != 3 || f.rids[0] == "" || f.rids[1] != f.rids[0] || f.rids[2] != f.rids[0] {
			t.Errorf("%s: attempts carried request IDs %q, want three of one ID", what, f.rids)
		}
		if got := c.TransportStats().Retries; got != 2 {
			t.Errorf("%s: %d retries counted, want 2", what, got)
		}
	}
}

// TestSemanticFaultIsNotRetried: a fault that is the server's answer to
// the call returns after exactly one attempt.
func TestSemanticFaultIsNotRetried(t *testing.T) {
	for _, code := range []int{xmlrpc.FaultApplication, xmlrpc.FaultAuth} {
		f := &failingTransport{fault: xmlrpc.NewFault(code, "no")}
		c := dialFailing(t, f)
		if err := c.SetState(context.Background(), "k", "v"); !xmlrpc.IsFault(err, code) {
			t.Errorf("fault %d: err = %v, want that fault", code, err)
		}
		if len(f.rids) != 1 || c.TransportStats().Retries != 0 {
			t.Errorf("fault %d: %d attempts, %d retries; want 1 and 0", code, len(f.rids), c.TransportStats().Retries)
		}
	}
}

// TestContextEndingInBackoffReturnsLastError: when the caller's context
// ends while a retry waits, the call returns the last attempt's error,
// which says why it was retrying, and makes no further attempt.
func TestContextEndingInBackoffReturnsLastError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := &failingTransport{fault: xmlrpc.NewFault(xmlrpc.FaultUnavailable, "draining"), onCall: cancel}
	c := dialFailing(t, f)
	if err := c.SetState(ctx, "k", "v"); !xmlrpc.IsFault(err, xmlrpc.FaultUnavailable) {
		t.Fatalf("err = %v, want the attempt's unavailable fault", err)
	}
	if len(f.rids) != 1 {
		t.Fatalf("%d attempts, want 1", len(f.rids))
	}
}
