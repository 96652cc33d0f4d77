package clarens

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// slowServer hangs every request until the client goes away (draining
// the body first so the server can detect the disconnect); a fallback
// timer keeps Close from blocking if detection fails.
func slowServer(t *testing.T) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	t.Cleanup(hs.Close)
	return hs
}

func TestClientTimeoutBoundsHungServer(t *testing.T) {
	hs := slowServer(t)
	c := NewClientTimeout(hs.URL, 50*time.Millisecond)
	start := time.Now()
	_, err := c.Call(context.Background(), "system.ping")
	if err == nil {
		t.Fatal("call against a hung server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, want ≈50ms", elapsed)
	}
}

func TestClientContextCancellation(t *testing.T) {
	hs := slowServer(t)
	c := NewClient(hs.URL) // default timeout is much longer than the test
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Call(ctx, "system.ping"); err == nil {
		t.Fatal("call with expired context succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want ≈50ms", elapsed)
	}
}

func TestSetTimeoutReplacesBound(t *testing.T) {
	hs := slowServer(t)
	c := NewClient(hs.URL)
	c.SetTimeout(50 * time.Millisecond)
	if _, err := c.Call(context.Background(), "system.ping"); err == nil {
		t.Fatal("call after SetTimeout against a hung server succeeded")
	}
}

// countingTransport stands in for a fault-injection wrapper: the test
// only cares that installed transports stay on the request path.
type countingTransport struct {
	calls int
	base  http.RoundTripper
}

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct.calls++
	return ct.base.RoundTrip(req)
}

// TestSetTimeoutPreservesTransport pins the regression where SetTimeout
// rebuilt the http.Client from scratch and silently discarded a custom
// round-tripper — fault-injection harnesses lost their faults the
// moment a timeout was configured.
func TestSetTimeoutPreservesTransport(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.Write([]byte(`<?xml version="1.0"?><methodResponse><params><param><value><string>ok</string></value></param></params></methodResponse>`))
	}))
	t.Cleanup(hs.Close)

	ct := &countingTransport{base: http.DefaultTransport}
	c := NewClient(hs.URL)
	c.SetTransport(ct)
	c.SetTimeout(5 * time.Second)
	if _, err := c.Call(context.Background(), "system.ping"); err != nil {
		t.Fatal(err)
	}
	if ct.calls != 1 {
		t.Fatalf("custom transport saw %d calls after SetTimeout, want 1 (SetTimeout discarded it)", ct.calls)
	}
	if c.HTTP.Timeout != 5*time.Second {
		t.Fatalf("timeout = %v after SetTimeout, want 5s", c.HTTP.Timeout)
	}

	// And the converse: SetTransport keeps the configured timeout.
	c.SetTransport(ct)
	if c.HTTP.Timeout != 5*time.Second {
		t.Fatalf("timeout = %v after SetTransport, want 5s preserved", c.HTTP.Timeout)
	}
	if c.HTTP.Transport != http.RoundTripper(ct) {
		t.Fatal("SetTransport did not install the round-tripper")
	}
}

// SetTransport(nil) gives the client back a pool of its own, not the
// process-wide http.DefaultTransport that NewClient moved away from.
func TestSetTransportNilRestoresOwnPool(t *testing.T) {
	c := NewClient("http://127.0.0.1:0")
	own := c.HTTP.Transport
	c.SetTransport(&countingTransport{base: http.DefaultTransport})
	c.SetTransport(nil)
	rt := c.HTTP.Transport
	if _, ok := rt.(*http.Transport); !ok || rt == http.DefaultTransport || rt == own {
		t.Fatalf("transport after SetTransport(nil) = %T %p, want a fresh *http.Transport", rt, rt)
	}
}
