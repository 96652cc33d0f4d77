package clarens

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/xmlrpc"
)

// Client is a session-aware Clarens client. After Login every call carries
// the session token; Call and CallInto come from the embedded XML-RPC
// client.
type Client struct {
	*xmlrpc.Client
}

// DefaultTimeout bounds every HTTP request of a new client. Use
// SetTimeout (or a context deadline on individual calls) to change it.
const DefaultTimeout = 30 * time.Second

// NewClient creates a client for a Clarens endpoint with DefaultTimeout.
func NewClient(endpoint string) *Client {
	c := xmlrpc.NewClient(endpoint)
	c.HTTP.Timeout = DefaultTimeout
	c.Headers = make(map[string]string)
	return &Client{Client: c}
}

// NewClientTimeout creates a client whose HTTP requests are bounded by
// timeout (0 disables the bound; per-call contexts still apply).
func NewClientTimeout(endpoint string, timeout time.Duration) *Client {
	c := NewClient(endpoint)
	c.SetTimeout(timeout)
	return c
}

// SetTimeout rebounds every future HTTP request. A timeout of 0 removes
// the bound, leaving cancellation to per-call contexts. Like SetToken
// and the Headers map, it is part of client configuration: call it
// before the client is shared between goroutines (typically right after
// construction), not concurrently with Call. A custom Transport
// installed with SetTransport survives the change.
func (c *Client) SetTimeout(timeout time.Duration) {
	var transport http.RoundTripper
	if c.HTTP != nil {
		transport = c.HTTP.Transport
	}
	c.HTTP = &http.Client{Timeout: timeout, Transport: transport}
}

// SetTransport installs a custom HTTP round-tripper (nil restores the
// default, a connection pool of the client's own), preserving the
// configured timeout. Fault-injection harnesses wrap the transport here.
func (c *Client) SetTransport(rt http.RoundTripper) {
	var timeout time.Duration
	if c.HTTP != nil {
		timeout = c.HTTP.Timeout
	}
	if rt == nil {
		rt = xmlrpc.NewTransport()
	}
	c.HTTP = &http.Client{Timeout: timeout, Transport: rt}
}

// Login authenticates and attaches the session token to future calls.
func (c *Client) Login(ctx context.Context, user, password string) error {
	var token string
	if err := c.CallInto(ctx, "system.auth", &token, user, password); err != nil {
		return fmt.Errorf("clarens: login %q: %w", user, err)
	}
	c.Headers[SessionHeader] = token
	return nil
}

// Logout closes the session server-side and drops the local token.
func (c *Client) Logout(ctx context.Context) error {
	_, err := c.Call(ctx, "system.logout")
	delete(c.Headers, SessionHeader)
	return err
}

// Token returns the current session token ("" when logged out).
func (c *Client) Token() string { return c.Headers[SessionHeader] }

// SetToken attaches an existing session token (e.g. shared across
// processes).
func (c *Client) SetToken(token string) {
	if token == "" {
		delete(c.Headers, SessionHeader)
		return
	}
	c.Headers[SessionHeader] = token
}

// Discover asks the host (and its peers) for a service endpoint.
func (c *Client) Discover(ctx context.Context, service string) (info ServiceInfo, err error) {
	err = c.CallInto(ctx, "registry.discover", &info, service, true)
	return info, err
}

// Services lists the host's registered services.
func (c *Client) Services(ctx context.Context) (infos []ServiceInfo, err error) {
	err = c.CallInto(ctx, "registry.list", &infos)
	return infos, err
}
