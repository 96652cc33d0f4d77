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
	c := NewClient(hs.URL)
	c.HTTP.Timeout = 50 * time.Millisecond
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
