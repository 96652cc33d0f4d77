// Package chaos is the fault-injection and reconciliation harness for
// the exactly-once RPC layer: a wrappable HTTP transport that drops,
// duplicates, or ack-loses requests, and a load harness that
// drives real traffic through those faults — across server kills — then
// reconciles the client-side acked-op log against the recovered server
// state. The invariant it checks is the paper-era durability contract:
// every acknowledged operation survives, and no operation applies twice.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
)

// Faults scripts a Transport. Probabilities are evaluated per request in
// the order drop, ack-loss, duplicate; at most one fires.
type Faults struct {
	Seed int64
	// DropProb fails the request without delivering it — the server
	// never sees the call.
	DropProb float64
	// AckLossProb delivers the request but discards the response and
	// reports a transport error — the server applied the call, the
	// client cannot know. The shape that makes naive retries double-apply.
	AckLossProb float64
	// DupProb delivers the request twice, back to back, returning the
	// second response — a retransmitting network.
	DupProb float64
}

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
	Base http.RoundTripper // nil means http.DefaultTransport

	f  Faults
	mu sync.Mutex
	rn *rand.Rand

	calls, drops, ackLosses, dups atomic.Int64
}

// NewTransport wraps base (nil for the default transport) with f.
func NewTransport(base http.RoundTripper, f Faults) *Transport {
	return &Transport{Base: base, f: f, rn: rand.New(rand.NewSource(f.Seed))}
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

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
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
	case p < t.f.DropProb:
		return faultDrop
	case p < t.f.DropProb+t.f.AckLossProb:
		return faultAckLost
	case p < t.f.DropProb+t.f.AckLossProb+t.f.DupProb:
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
		resp, err := t.base().RoundTrip(req)
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
				if resp, err := t.base().RoundTrip(clone); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					t.dups.Add(1)
				}
			}
		}
	}
	return t.base().RoundTrip(req)
}
