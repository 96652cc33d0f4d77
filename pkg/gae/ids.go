package gae

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"repro/internal/clarens"
)

// A mutating call carries an idempotency key: a request ID unique to that
// logical operation. The server's journaled service layer dedups against
// a per-user window of acknowledged IDs, so a retry of an ack-lost call —
// same ID — returns the originally acknowledged result instead of
// applying twice. The remote transport is where retries happen, so it is
// what mints an ID, once per logical call and before its first attempt
// (remoteCall in rows.go); reads carry none. An in-process call is never
// retried and carries an ID only when the caller pins one. WithRequestID
// pins an explicit ID on either transport (harnesses pin IDs so an op's
// identity survives a re-dialed client).

// WithRequestID pins the idempotency key for the calls made under ctx.
// The remote transport sends a pinned key verbatim, so all mutating calls
// sharing this context are one logical operation to the server.
func WithRequestID(ctx context.Context, id string) context.Context {
	return clarens.WithRequestID(ctx, id)
}

// idGen mints request IDs: a random per-client prefix (so two clients —
// or one client restarted — can never collide) and a counter.
type idGen struct {
	prefix string
	n      atomic.Uint64
}

func newIDGen() *idGen {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("gae: reading random id prefix: %v", err))
	}
	return &idGen{prefix: hex.EncodeToString(b[:])}
}

func (g *idGen) next() string {
	return fmt.Sprintf("%s-%d", g.prefix, g.n.Add(1))
}
