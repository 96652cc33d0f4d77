package simgrid

import (
	"slices"
	"time"
)

// Step advances the simulation by exactly one tick, dispatching whatever
// is due at that boundary and counting it in Ticks even when nothing is:
// the oracle and count tests' way to visit every boundary. Outside
// dispatch nothing is due at or before the current boundary, so it
// dispatches what RunFor(e.Tick()) does.
func (e *Engine) Step() {
	e.processBoundary(e.nowTick + 1)
}

// flowHandle observes one cross-site transfer for the flow-model tests;
// production hands out no handle.
type flowHandle struct {
	n *Network
	k [2]string
	f *flow
}

// startFlow is StartTransfer returning a handle on the flow it started,
// nil for a same-site copy.
func (n *Network) startFlow(a, b string, sizeMB float64, done func(time.Duration)) (*flowHandle, time.Duration, error) {
	quote, err := n.StartTransfer(a, b, sizeMB, done)
	if err != nil || a == b {
		return nil, quote, err
	}
	k := linkKey(a, b)
	fs := n.flows[k]
	return &flowHandle{n: n, k: k, f: fs[len(fs)-1]}, quote, nil
}

// Finished reports whether the flow has completed, that is left its link.
func (h *flowHandle) Finished() bool {
	return !slices.Contains(h.n.flows[h.k], h.f)
}

// Remaining reports the MB of payload left right now, without perturbing
// the flow: reads never settle.
func (h *flowHandle) Remaining() float64 {
	if h.Finished() {
		return 0
	}
	f := h.f
	return max(f.remaining-f.rate*h.n.engine.Now().Sub(f.lastSettle).Seconds(), 0)
}

// Deadline reports the flow's current analytic completion instant.
func (h *flowHandle) Deadline() time.Time {
	return h.f.deadline
}

// ActiveFlows reports how many transfers occupy bandwidth on the link
// between a and b; flows riding out their latency tail are not counted.
func (n *Network) ActiveFlows(a, b string) int {
	active := 0
	for _, f := range n.flows[linkKey(a, b)] {
		if f.drainedAt.IsZero() {
			active++
		}
	}
	return active
}
