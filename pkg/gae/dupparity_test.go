package gae_test

// Duplicate-delivery parity: two identically-seeded deployments run the
// same scripted mutations — one over the local transport with each op
// delivered exactly once, one over Clarens XML-RPC behind a transport
// that delivers every request twice. With pinned request IDs
// the server-side idempotency window must suppress every second
// delivery, leaving the two deployments with byte-identical captured
// state.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clarens"
	"repro/internal/core"
	"repro/pkg/gae"
)

// deliverTwice is a transport that delivers every request twice, back to
// back, and returns the second reply — a retransmitting network: a
// mutation that goes out without a request ID applies twice over it. It
// counts the requests that carry one.
type deliverTwice struct{ stamped atomic.Int64 }

func (d *deliverTwice) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Header.Get(clarens.RequestIDHeader) != "" {
		d.stamped.Add(1)
	}
	if req.GetBody == nil {
		return nil, fmt.Errorf("deliverTwice: the request to %s cannot be replayed", req.URL.Path)
	}
	first := req.Clone(req.Context())
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	first.Body = body
	resp, err := http.DefaultTransport.RoundTrip(first)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return http.DefaultTransport.RoundTrip(req)
}

func encodeState(t *testing.T, g *core.GAE) string {
	t.Helper()
	st, err := g.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestParityDuplicateDelivery(t *testing.T) {
	ctx := context.Background()

	gl := core.New(parityConfig())
	lc := gl.Client("alice")

	gr := core.New(parityConfig())
	hs := httptest.NewServer(gr.Handler())
	t.Cleanup(hs.Close)
	gr.Clarens.SetBaseURL(hs.URL)
	dupTransport := &deliverTwice{}
	rc, err := gae.Dial(ctx, hs.URL,
		gae.WithCredentials("alice", "pw"), gae.WithTransport(dupTransport))
	if err != nil {
		t.Fatal(err)
	}

	// The same scripted mutations, with the same pinned request IDs, on
	// both deployments. Each sim advance is mirrored so the clocks agree.
	script := func(g *core.GAE, c *gae.Client) {
		t.Helper()
		name, err := c.Submit(gae.WithRequestID(ctx, "par-submit-1"), parityPlan("dupplan", 600))
		if err != nil || name != "dupplan" {
			t.Fatalf("submit = %q, %v", name, err)
		}
		g.Run(5 * time.Second)

		status, err := c.Plan(ctx, "dupplan")
		if err != nil {
			t.Fatal(err)
		}
		target := "siteB"
		if status.Tasks[0].Site == "siteB" {
			target = "siteA"
		}
		if _, err := c.Move(gae.WithRequestID(ctx, "par-move-1"), "dupplan", "main", target); err != nil {
			t.Fatalf("move: %v", err)
		}
		if err := c.SetState(gae.WithRequestID(ctx, "par-set-1"), "cuts", "pt>20"); err != nil {
			t.Fatalf("set: %v", err)
		}
		g.Run(10 * time.Second)
	}
	script(gl, lc)
	script(gr, rc)

	if n := dupTransport.stamped.Load(); n != 3 {
		t.Fatalf("%d stamped requests went out twice, want the 3 mutations", n)
	}
	local, remote := encodeState(t, gl), encodeState(t, gr)
	if local != remote {
		t.Errorf("state diverged after duplicate delivery:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
}
