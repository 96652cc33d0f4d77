package gae

import (
	"context"
	"errors"
	"testing"
	"time"
)

// Breaker state-machine tests drive retryState.do directly with scripted
// call functions. Backoff sleeps are stubbed to return immediately, and
// the open→half-open cooldown (one second) is skipped by back-dating
// openedAt.

var errWire = errors.New("connection reset by peer")

// newTestRetryState builds a retryState with a threshold-3 breaker and a
// no-op sleep.
func newTestRetryState() *retryState {
	rs := newRetryState(RetryPolicy{
		MaxAttempts:      2,
		BaseBackoff:      time.Nanosecond,
		MaxBackoff:       time.Nanosecond,
		BreakerThreshold: 3,
	})
	rs.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	return rs
}

// expireCooldown back-dates the breaker's open timestamp so the next
// allow() admits a half-open probe without waiting out the cooldown.
func expireCooldown(rs *retryState) {
	rs.br.mu.Lock()
	rs.br.openedAt = time.Now().Add(-2 * time.Hour)
	rs.br.mu.Unlock()
}

func (rs *retryState) state() breakerState {
	rs.br.mu.Lock()
	defer rs.br.mu.Unlock()
	return rs.br.state
}

func failingCall(ctx context.Context) error { return errWire }
func okCall(ctx context.Context) error      { return nil }

func TestBreakerTransitionCycle(t *testing.T) {
	rs := newTestRetryState()

	// closed → open: three consecutive failures trip the threshold.
	// Each do() makes 2 attempts, so two failing calls give 4 failures.
	for i := 0; i < 2; i++ {
		if err := rs.do(context.Background(), failingCall); err == nil {
			t.Fatalf("do %d: expected error", i)
		}
	}
	if got := rs.state(); got != breakerOpen {
		t.Fatalf("after failures: state = %v, want open", got)
	}
	st := rs.snapshot()
	if st.BreakerTransitions.ClosedOpen != 1 {
		t.Fatalf("ClosedOpen = %d, want 1", st.BreakerTransitions.ClosedOpen)
	}
	if st.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", st.BreakerOpens)
	}

	// Open with a live cooldown: calls fail fast with ErrCircuitOpen
	// and never touch the wire.
	callsBefore := rs.snapshot().Calls
	if err := rs.do(context.Background(), failingCall); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker: err = %v, want ErrCircuitOpen", err)
	}
	if got := rs.snapshot().Calls; got != callsBefore {
		t.Fatalf("open breaker made wire calls: %d -> %d", callsBefore, got)
	}

	// open → half-open → open: cooldown elapses, the probe fails.
	expireCooldown(rs)
	if err := rs.do(context.Background(), failingCall); err == nil {
		t.Fatal("probe: expected error")
	}
	if got := rs.state(); got != breakerOpen {
		t.Fatalf("after failed probe: state = %v, want open", got)
	}
	st = rs.snapshot()
	if st.BreakerTransitions.OpenHalfOpen != 1 {
		t.Fatalf("OpenHalfOpen = %d, want 1", st.BreakerTransitions.OpenHalfOpen)
	}
	if st.BreakerTransitions.HalfOpenOpen != 1 {
		t.Fatalf("HalfOpenOpen = %d, want 1", st.BreakerTransitions.HalfOpenOpen)
	}
	if st.BreakerOpens != 2 {
		t.Fatalf("BreakerOpens = %d, want 2", st.BreakerOpens)
	}

	// open → half-open → closed: cooldown elapses, the probe succeeds.
	expireCooldown(rs)
	if err := rs.do(context.Background(), okCall); err != nil {
		t.Fatalf("successful probe: %v", err)
	}
	if got := rs.state(); got != breakerClosed {
		t.Fatalf("after successful probe: state = %v, want closed", got)
	}
	st = rs.snapshot()
	want := BreakerTransitions{ClosedOpen: 1, OpenHalfOpen: 2, HalfOpenClosed: 1, HalfOpenOpen: 1}
	if st.BreakerTransitions != want {
		t.Fatalf("transitions = %+v, want %+v", st.BreakerTransitions, want)
	}
}

func TestBreakerSemanticFaultResets(t *testing.T) {
	rs := newTestRetryState()
	// Two wire failures accumulate toward the threshold...
	_ = rs.do(context.Background(), failingCall)
	rs.br.mu.Lock()
	failures := rs.br.failures
	rs.br.mu.Unlock()
	if failures == 0 {
		t.Fatal("wire failures not counted")
	}
	// ...then a success clears the streak without any transition: the
	// breaker never left closed, so no edges are recorded.
	if err := rs.do(context.Background(), okCall); err != nil {
		t.Fatalf("ok call: %v", err)
	}
	st := rs.snapshot()
	if st.BreakerTransitions != (BreakerTransitions{}) {
		t.Fatalf("closed-state success recorded transitions: %+v", st.BreakerTransitions)
	}
}
