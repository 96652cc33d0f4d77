package gae

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/xmlrpc"
)

// The retry layer sits at the remote transport's single chokepoint
// (remoteCall in rows.go) and re-attempts only what is safe and useful:
// transport failures (the server may never have seen the call — and if
// it did, the idempotency key makes the retry harmless) and the
// explicit FaultUnavailable a draining server answers with. Semantic
// rejections — auth failures, quota exhaustion, bad arguments — are
// the server's answer and are never retried.

const (
	// retryAttempts bounds the tries per call, the first included.
	retryAttempts = 3
	// retryBase is the delay before the first retry; it doubles per
	// retry up to retryCap.
	retryBase = 10 * time.Millisecond
	retryCap  = 200 * time.Millisecond
	// backoffJitter spreads each retry delay uniformly over ±25% of itself.
	backoffJitter = 0.5
)

// isRetryable classifies a remote-call error. Retryable: transport
// failures (connection refused, reset, EOF — the ack-lost shapes) and
// the explicit FaultUnavailable. Not retryable: every other fault (the
// server executed or rejected the call) and the caller's own context
// ending.
func isRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
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
// client, or a remote one dialed without WithRetries, reports zeros.
func (c *Client) TransportStats() TransportStats {
	if c.remote == nil || c.remote.retry == nil {
		return TransportStats{}
	}
	return TransportStats{Retries: c.remote.retry.retries.Load()}
}

// retryState is one dialed endpoint's retry counter.
type retryState struct {
	retries atomic.Int64
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

// backoffFor computes the (jittered) delay before retry number attempt
// (1-based).
func backoffFor(attempt int) time.Duration {
	d := retryBase
	for i := 1; i < attempt && d < retryCap; i++ {
		d *= 2
	}
	d = min(d, retryCap)
	return time.Duration(float64(d) * (1 + backoffJitter*(rand.Float64()-0.5)))
}

// do runs one wire call, retrying it (a nil rs: once, as it is). The
// same ctx — and so the same idempotency key — rides every attempt,
// which is what makes retrying a mutation safe.
func (rs *retryState) do(ctx context.Context, call func(ctx context.Context) error) error {
	if rs == nil {
		return call(ctx)
	}
	var err error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			rs.retries.Add(1)
			if sleepCtx(ctx, backoffFor(attempt)) != nil {
				// The caller's context ended mid-backoff; the last
				// attempt's error says why we were still retrying.
				return err
			}
		}
		if err = call(ctx); !isRetryable(err) {
			return err
		}
	}
	return err
}
