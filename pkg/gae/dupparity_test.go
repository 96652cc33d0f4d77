package gae_test

// Duplicate-delivery parity: two identically-seeded deployments run the
// same scripted mutations — one over the local transport with each op
// delivered exactly once, one over Clarens XML-RPC behind a chaos
// transport that delivers every request twice. With pinned request IDs
// the server-side idempotency window must suppress every second
// delivery, leaving the two deployments with byte-identical captured
// state.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/pkg/gae"
)

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
	dupTransport := chaos.DuplicatingTransport()
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

	if s := dupTransport.Stats(); s.Dups == 0 {
		t.Fatalf("chaos transport duplicated nothing (stats %+v); the scenario is vacuous", s)
	}
	local, remote := encodeState(t, gl), encodeState(t, gr)
	if local != remote {
		t.Errorf("state diverged after duplicate delivery:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
}
