package clarens

import (
	"context"
	"fmt"

	"repro/internal/xmlrpc"
)

// Client is a session-aware Clarens client. After Login every call carries
// the session token; Call and CallInto come from the embedded XML-RPC
// client.
type Client struct {
	*xmlrpc.Client
}

// NewClient creates a client for a Clarens endpoint, with xmlrpc.NewClient's
// HTTP client: a connection pool of its own and a 30 s bound on every
// request. Change HTTP.Timeout or HTTP.Transport before the client is
// shared between goroutines.
func NewClient(endpoint string) *Client {
	c := xmlrpc.NewClient(endpoint)
	c.Headers = make(map[string]string)
	return &Client{Client: c}
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
