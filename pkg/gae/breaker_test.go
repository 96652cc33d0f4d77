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
	wire := 0
	failing := func(ctx context.Context) error { wire++; return errWire }

	// closed → open: three consecutive failures trip the threshold.
	// Each do() makes 2 attempts, so two failing calls give 4 failures.
	for i := 0; i < 2; i++ {
		if err := rs.do(context.Background(), failing); err == nil {
			t.Fatalf("do %d: expected error", i)
		}
	}
	if got := rs.state(); got != breakerOpen {
		t.Fatalf("after failures: state = %v, want open", got)
	}
	if wire != 3 {
		t.Fatalf("wire calls before the trip = %d, want 3", wire)
	}

	// Open with a live cooldown: calls fail fast with ErrCircuitOpen
	// and never touch the wire.
	if err := rs.do(context.Background(), failing); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker: err = %v, want ErrCircuitOpen", err)
	}
	if wire != 3 {
		t.Fatalf("open breaker made wire calls: 3 -> %d", wire)
	}

	// open → half-open → open: cooldown elapses, one probe goes out and
	// fails.
	expireCooldown(rs)
	if err := rs.do(context.Background(), failing); err == nil {
		t.Fatal("probe: expected error")
	}
	if got := rs.state(); got != breakerOpen {
		t.Fatalf("after failed probe: state = %v, want open", got)
	}
	if wire != 4 {
		t.Fatalf("wire calls after the probe = %d, want 4", wire)
	}

	// open → half-open → closed: cooldown elapses, the probe succeeds.
	expireCooldown(rs)
	if err := rs.do(context.Background(), okCall); err != nil {
		t.Fatalf("successful probe: %v", err)
	}
	if got := rs.state(); got != breakerClosed {
		t.Fatalf("after successful probe: state = %v, want closed", got)
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
	// ...then a success clears the streak: the breaker never left closed.
	if err := rs.do(context.Background(), okCall); err != nil {
		t.Fatalf("ok call: %v", err)
	}
	rs.br.mu.Lock()
	failures = rs.br.failures
	rs.br.mu.Unlock()
	if got := rs.state(); got != breakerClosed || failures != 0 {
		t.Fatalf("after success: state %v, %d failures; want closed, 0", got, failures)
	}
}
