package gae

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xmlrpc"
)

// The retry layer sits at the remote transport's single chokepoint
// (call in remote.go) and re-attempts only what is safe and useful:
// transport failures (the server may never have seen the call — and if
// it did, the idempotency key makes the retry harmless) and the
// explicit FaultUnavailable a draining server answers with. Semantic
// rejections — auth failures, quota exhaustion, bad arguments — are
// the server's answer and are never retried. A per-endpoint circuit
// breaker stops a dead server from absorbing every caller's full retry
// budget: once it opens, attempts fail fast until a cooldown probe
// succeeds.

// ErrCircuitOpen is returned (wrapped in the call's error) when the
// endpoint's circuit breaker is shedding calls.
var ErrCircuitOpen = errors.New("gae: circuit breaker open")

const (
	// backoffJitter spreads each retry delay uniformly over ±25% of itself.
	backoffJitter = 0.5
	// breakerCooldown is how long the circuit stays open before one probe
	// call may test the endpoint.
	breakerCooldown = time.Second
)

// RetryPolicy tunes the remote transport's retry loop. The zero value
// of each field selects the documented default; Dial enables the layer
// only when WithRetryPolicy is given.
type RetryPolicy struct {
	// MaxAttempts bounds total tries per call, first included (default 4).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the (pre-jitter) delay (default 2s).
	MaxBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit (default 5).
	BreakerThreshold int
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 5
	}
	return p
}

// IsRetryable classifies a remote-call error. Retryable: transport
// failures (connection refused, reset, EOF — the ack-lost shapes) and
// the explicit FaultUnavailable. Not retryable: every other fault (the
// server executed or rejected the call) and the caller's own context
// ending.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrCircuitOpen) {
		return true
	}
	if f, ok := xmlrpc.AsFault(err); ok {
		return f.Code == xmlrpc.FaultUnavailable
	}
	return true
}

// TransportStats counts the remote transport's retry activity.
type TransportStats struct {
	// Retries is the number of re-attempts after retryable failures.
	Retries int64
}

// TransportStats reports the client's retry counters. A local-transport
// client, or a remote one dialed without WithRetryPolicy, reports zeros.
func (c *Client) TransportStats() TransportStats {
	if c.remote == nil || c.remote.retry == nil {
		return TransportStats{}
	}
	return c.remote.retry.snapshot()
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a consecutive-failure circuit breaker. Open it fails fast;
// after the cooldown exactly one probe is let through, and its outcome
// closes or re-opens the circuit.
type breaker struct {
	threshold int

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
}

func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if time.Since(b.openedAt) < breakerCooldown {
			return false
		}
		b.state = breakerHalfOpen
		return true
	case breakerHalfOpen:
		// A probe is already in flight.
		return false
	}
	return true
}

func (b *breaker) success() {
	b.mu.Lock()
	b.state = breakerClosed
	b.failures = 0
	b.mu.Unlock()
}

func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.openedAt = time.Now()
		return
	}
	b.failures++
	if b.state == breakerClosed && b.failures >= b.threshold {
		b.state = breakerOpen
		b.openedAt = time.Now()
	}
}

// retryState is one dialed endpoint's retry machinery: policy, breaker,
// counters, and an injectable sleep for tests.
type retryState struct {
	policy RetryPolicy
	br     breaker
	sleep  func(ctx context.Context, d time.Duration) error

	retries atomic.Int64
}

// newRetryState builds the retry machinery for one dialed endpoint.
func newRetryState(p RetryPolicy) *retryState {
	p = p.withDefaults()
	return &retryState{
		policy: p,
		br:     breaker{threshold: p.BreakerThreshold},
		sleep:  sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (rs *retryState) snapshot() TransportStats {
	return TransportStats{Retries: rs.retries.Load()}
}

// backoffFor computes the (jittered) delay before retry number attempt
// (1-based).
func (rs *retryState) backoffFor(attempt int) time.Duration {
	d := rs.policy.BaseBackoff
	for i := 1; i < attempt && d < rs.policy.MaxBackoff; i++ {
		d *= 2
	}
	if d > rs.policy.MaxBackoff {
		d = rs.policy.MaxBackoff
	}
	return time.Duration(float64(d) * (1 + backoffJitter*(rand.Float64()-0.5)))
}

// do runs one wire call under the retry policy (a nil rs: once, as it
// is). The same ctx — and so the same idempotency key — rides every
// attempt, which is what makes retrying a mutation safe.
func (rs *retryState) do(ctx context.Context, call func(ctx context.Context) error) error {
	if rs == nil {
		return call(ctx)
	}
	var lastErr error
	for attempt := 0; attempt < rs.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			rs.retries.Add(1)
			if err := rs.sleep(ctx, rs.backoffFor(attempt)); err != nil {
				// The caller's context ended mid-backoff; the last
				// attempt's error says why we were still retrying.
				return lastErr
			}
		}
		if !rs.br.allow() {
			// Breaker-open counts as a retryable failure: keep backing
			// off (the cooldown may admit a probe) without touching the
			// wire.
			lastErr = ErrCircuitOpen
			continue
		}
		err := call(ctx)
		if err == nil {
			rs.br.success()
			return nil
		}
		lastErr = err
		if !IsRetryable(err) {
			// A semantic fault is a healthy server answering; it resets
			// the breaker rather than counting against it.
			if _, ok := xmlrpc.AsFault(err); ok {
				rs.br.success()
			}
			return err
		}
		rs.br.failure()
	}
	return lastErr
}
