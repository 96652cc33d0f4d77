// Package chaos is the fault-injection and reconciliation harness for
// the exactly-once RPC layer: an HTTP transport that drops, duplicates,
// or ack-loses requests, a load harness that drives real traffic through
// those faults — across server kills — then reconciles the client-side
// acked-op log against the recovered server state, and the launcher of
// the gae-server child every harness command runs (server.go). The
// invariant it checks is the paper-era durability contract: every
// acknowledged operation survives, and no operation applies twice.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
)

// faults scripts a Transport. Probabilities are evaluated per request in
// the order drop, ack-loss, duplicate; at most one fires.
type faults struct {
	seed int64
	// drop fails the request without delivering it — the server never
	// sees the call.
	drop float64
	// ackLoss delivers the request but discards the response and reports
	// a transport error — the server applied the call, the client cannot
	// know. The shape that makes naive retries double-apply.
	ackLoss float64
	// dup delivers the request twice, back to back, returning the second
	// response — a retransmitting network.
	dup float64
}

// harnessFaults are the faults Run's workers meet.
var harnessFaults = faults{seed: 1, drop: 0.05, ackLoss: 0.10, dup: 0.10}

// Stats counts the faults a Transport actually injected.
type Stats struct {
	Calls     int64
	Drops     int64
	AckLosses int64
	Dups      int64
}

// Transport wraps an http.RoundTripper with scripted faults. It is safe
// for concurrent use.
type Transport struct {
	f  faults
	mu sync.Mutex
	rn *rand.Rand

	calls, drops, ackLosses, dups atomic.Int64
}

func newTransport(f faults) *Transport {
	return &Transport{f: f, rn: rand.New(rand.NewSource(f.seed))}
}

// Stats snapshots the injected-fault counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Calls:     t.calls.Load(),
		Drops:     t.drops.Load(),
		AckLosses: t.ackLosses.Load(),
		Dups:      t.dups.Load(),
	}
}

type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	faultAckLost
	faultDup
)

func (t *Transport) pick() faultKind {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.rn.Float64()
	switch {
	case p < t.f.drop:
		return faultDrop
	case p < t.f.drop+t.f.ackLoss:
		return faultAckLost
	case p < t.f.drop+t.f.ackLoss+t.f.dup:
		return faultDup
	}
	return faultNone
}

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.calls.Add(1)
	switch t.pick() {
	case faultDrop:
		if req.Body != nil {
			req.Body.Close()
		}
		t.drops.Add(1)
		return nil, fmt.Errorf("chaos: request to %s dropped", req.URL.Path)
	case faultAckLost:
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.ackLosses.Add(1)
		return nil, fmt.Errorf("chaos: ack from %s lost (request was delivered)", req.URL.Path)
	case faultDup:
		// First delivery needs its own body; GetBody is set for the
		// buffered bodies the XML-RPC client builds. Without it the
		// request can't be replayed — deliver once.
		if req.GetBody != nil {
			clone := req.Clone(req.Context())
			if body, err := req.GetBody(); err == nil {
				clone.Body = body
				if resp, err := http.DefaultTransport.RoundTrip(clone); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					t.dups.Add(1)
				}
			}
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}
