// Package vtime provides the time abstraction used throughout the GAE
// reproduction. Services never call time.Now directly; they hold a Clock.
// Production deployments use the real clock, while experiments run on a
// deterministic simulated clock that the discrete-event engine moves from
// one scheduled boundary to the next, making the paper's multi-hundred-second
// scenarios (Figure 7) reproducible in milliseconds of wall time. Nothing
// blocks on a Clock: the engine's event queue is the one way code waits on
// simulated time.
package vtime

import (
	"sync/atomic"
	"time"
)

// Clock is the minimal time interface required by GAE services.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
}

// Real returns a Clock backed by the system clock.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() } //lint:walltime realClock is the explicit wall-clock escape hatch; sim code injects SimClock

// SimClock is a deterministic simulated clock. Time advances only when
// Advance or AdvanceTo is called, and never backwards. It is its epoch
// plus an offset in nanoseconds held in one atomic word, so a read is a
// load and an Add, with no lock, beside a writer on another goroutine.
// Every reading carries the epoch's location: the time a chain of
// Advance calls reaches is == to the epoch Added the same durations one
// by one.
type SimClock struct {
	epoch time.Time
	off   atomic.Int64 // nanoseconds since epoch
}

// Epoch is where every simulated clock starts: 2005-01-01T00:00:00Z, a
// nod to the paper's publication year and a stable base for golden
// outputs.
var Epoch = time.Date(2005, time.January, 1, 0, 0, 0, 0, time.UTC)

// NewSimClock returns a SimClock starting at Epoch.
func NewSimClock() *SimClock { return &SimClock{epoch: Epoch} }

// Now returns the current simulated time.
func (c *SimClock) Now() time.Time {
	return c.epoch.Add(time.Duration(c.off.Load()))
}

// Advance moves simulated time forward by d.
func (c *SimClock) Advance(d time.Duration) {
	if d < 0 {
		panic("vtime: negative advance")
	}
	c.off.Add(int64(d))
}

// AdvanceTo moves simulated time forward to the absolute instant t.
// It is a no-op if t is not after the current time, also when another
// goroutine moves the clock past t meanwhile.
func (c *SimClock) AdvanceTo(t time.Time) {
	to := int64(t.Sub(c.epoch))
	for {
		cur := c.off.Load()
		if to <= cur || c.off.CompareAndSwap(cur, to) {
			return
		}
	}
}
