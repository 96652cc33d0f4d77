package gae

import (
	"context"
	"net/http"
	"time"

	"repro/internal/clarens"
)

// The remote transport: a client's calls sent to a Clarens XML-RPC
// endpoint, each as its row encodes it (remoteCall in rows.go). Requests
// honor the caller's context (cancellation and deadlines propagate into
// the HTTP layer), the session token from Dial rides every call, and the
// HTTP client enforces a configurable timeout so a hung server cannot
// wedge a CLI. Each mutating call carries a request ID (see ids.go)
// across all of its attempts.

// Option configures Dial.
type Option func(*dialOptions)

type dialOptions struct {
	user, pass string
	token      string
	timeout    time.Duration
	retry      *RetryPolicy
	transport  http.RoundTripper
}

// WithCredentials makes Dial authenticate and attach the resulting
// session token to every call.
func WithCredentials(user, password string) Option {
	return func(o *dialOptions) { o.user, o.pass = user, password }
}

// WithToken attaches an existing session token (e.g. shared across
// processes) instead of logging in.
func WithToken(token string) Option {
	return func(o *dialOptions) { o.token = token }
}

// WithTimeout bounds every HTTP request (default 30s; 0 means no bound).
func WithTimeout(d time.Duration) Option {
	return func(o *dialOptions) { o.timeout = d }
}

// WithRetryPolicy enables the retry layer (see retry.go): transport
// failures and FaultUnavailable are retried with exponential backoff
// under a per-endpoint circuit breaker. Without this option every wire
// error surfaces directly, as before.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(o *dialOptions) { o.retry = &p }
}

// WithTransport installs a custom HTTP round-tripper on the underlying
// client — fault-injection harnesses wrap the real transport here.
func WithTransport(rt http.RoundTripper) Option {
	return func(o *dialOptions) { o.transport = rt }
}

// Dial connects to a Clarens endpoint and returns a remote-transport
// Client. With WithCredentials it logs in before returning.
func Dial(ctx context.Context, endpoint string, opts ...Option) (*Client, error) {
	o := dialOptions{timeout: 30 * time.Second}
	for _, opt := range opts {
		opt(&o)
	}
	cc := clarens.NewClient(endpoint)
	cc.HTTP.Timeout = o.timeout
	if o.transport != nil {
		cc.HTTP.Transport = o.transport
	}
	if o.token != "" {
		cc.SetToken(o.token)
	}
	r := &remote{c: cc, ids: newIDGen()}
	if o.user != "" {
		if err := cc.Login(ctx, o.user, o.pass); err != nil {
			return nil, err
		}
		r.ownsSession = true
	}
	if o.retry != nil {
		r.retry = newRetryState(*o.retry)
	}
	return &Client{remote: r}, nil
}

// remote is the remote transport: one Clarens session, the request IDs
// it mints, and its retry layer.
type remote struct {
	c   *clarens.Client
	ids *idGen
	// ownsSession marks a session the client opened itself (Dial with
	// credentials); only those are closed server-side by Close, so a
	// token borrowed via WithToken stays valid for its other holders.
	ownsSession bool
	retry       *retryState // nil unless Dial got WithRetryPolicy
}
