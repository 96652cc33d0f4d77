package xmlrpc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client issues XML-RPC calls against a single endpoint URL.
// http.DefaultClient is used unless HTTP is set; Headers (for example a
// Clarens session token) are attached to every request.
type Client struct {
	URL     string
	HTTP    *http.Client
	Headers map[string]string
}

// ctxHeadersKey carries per-call HTTP headers through a context.
type ctxHeadersKey struct{}

type headerKV struct{ key, value string }

// WithCallHeader returns a context that attaches one extra HTTP header to
// every XML-RPC request issued with it. Unlike Client.Headers — client
// configuration, set before sharing — call headers are per-request and
// safe to vary across concurrent calls (idempotency keys ride here).
func WithCallHeader(ctx context.Context, key, value string) context.Context {
	prev, _ := ctx.Value(ctxHeadersKey{}).([]headerKV)
	// Copy-on-append: contexts fork, so the slice must not be shared
	// mutable state between siblings.
	next := make([]headerKV, len(prev), len(prev)+1)
	copy(next, prev)
	next = append(next, headerKV{key, value})
	return context.WithValue(ctx, ctxHeadersKey{}, next)
}

func callHeaders(ctx context.Context) []headerKV {
	hs, _ := ctx.Value(ctxHeadersKey{}).([]headerKV)
	return hs
}

// NewClient returns a client for the endpoint with a default timeout
// suitable for LAN service calls and a connection pool of its own: clients
// sharing http.DefaultTransport race to dial connections that never carry
// a request, and a server's graceful shutdown waits five seconds on those.
func NewClient(url string) *Client {
	return &Client{URL: url, HTTP: &http.Client{Timeout: 30 * time.Second, Transport: NewTransport()}}
}

// NewTransport returns the connection pool a new client owns: a copy of
// http.DefaultTransport's settings, or the zero settings if a program has
// put another kind of round-tripper there.
func NewTransport() *http.Transport {
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		return t.Clone()
	}
	return &http.Transport{}
}

// Close releases the client's idle connections; a later Call dials again.
func (c *Client) Close() {
	if c.HTTP != nil {
		c.HTTP.CloseIdleConnections()
	}
}

// Call invokes method with args and returns the decoded result.
// A remote fault is returned as a *Fault error.
func (c *Client) Call(ctx context.Context, method string, args ...any) (any, error) {
	body, err := EncodeRequest(method, args)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	for k, v := range c.Headers {
		req.Header.Set(k, v)
	}
	for _, h := range callHeaders(ctx) {
		req.Header.Set(h.key, h.value)
	}
	httpClient := c.HTTP
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("xmlrpc: calling %s: %w", method, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("xmlrpc: %s returned HTTP %d: %s", method, resp.StatusCode, snippet)
	}
	raw, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("xmlrpc: reading %s response: %w", method, err)
	}
	return decodeResponse(raw)
}

// CallString invokes method and asserts a string result.
func (c *Client) CallString(ctx context.Context, method string, args ...any) (string, error) {
	v, err := c.Call(ctx, method, args...)
	if err != nil {
		return "", err
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("xmlrpc: %s returned %T, want string", method, v)
	}
	return s, nil
}

// CallInt invokes method and asserts an int result.
func (c *Client) CallInt(ctx context.Context, method string, args ...any) (int, error) {
	v, err := c.Call(ctx, method, args...)
	if err != nil {
		return 0, err
	}
	switch n := v.(type) {
	case int:
		return n, nil
	case float64:
		if n == float64(int(n)) {
			return int(n), nil
		}
	}
	return 0, fmt.Errorf("xmlrpc: %s returned %T, want int", method, v)
}

// CallFloat invokes method and asserts a double result.
func (c *Client) CallFloat(ctx context.Context, method string, args ...any) (float64, error) {
	v, err := c.Call(ctx, method, args...)
	if err != nil {
		return 0, err
	}
	switch n := v.(type) {
	case float64:
		return n, nil
	case int:
		return float64(n), nil
	}
	return 0, fmt.Errorf("xmlrpc: %s returned %T, want double", method, v)
}

// CallBool invokes method and asserts a boolean result.
func (c *Client) CallBool(ctx context.Context, method string, args ...any) (bool, error) {
	v, err := c.Call(ctx, method, args...)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("xmlrpc: %s returned %T, want boolean", method, v)
	}
	return b, nil
}

// CallStruct invokes method and asserts a struct result.
func (c *Client) CallStruct(ctx context.Context, method string, args ...any) (map[string]any, error) {
	v, err := c.Call(ctx, method, args...)
	if err != nil {
		return nil, err
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("xmlrpc: %s returned %T, want struct", method, v)
	}
	return m, nil
}

// CallArray invokes method and asserts an array result.
func (c *Client) CallArray(ctx context.Context, method string, args ...any) ([]any, error) {
	v, err := c.Call(ctx, method, args...)
	if err != nil {
		return nil, err
	}
	a, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("xmlrpc: %s returned %T, want array", method, v)
	}
	return a, nil
}
