package xmlrpc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Client issues XML-RPC calls against a single endpoint URL.
// http.DefaultClient is used unless HTTP is set; Headers (for example a
// Clarens session token) are attached to every request as they are, so
// their keys are to be in http.CanonicalHeaderKey's form. A Client is not
// to be copied after its first call.
type Client struct {
	URL     string
	HTTP    *http.Client
	Headers map[string]string

	endpoint atomic.Pointer[endpoint] // URL as last parsed
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
	next = append(next, headerKV{http.CanonicalHeaderKey(key), value})
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

// endpoint is Client.URL parsed, once per URL and not per call, into the
// request every call to it copies.
type endpoint struct {
	url string
	req *http.Request // a POST to url, without body, headers or context
}

var contentType = []string{"text/xml; charset=utf-8"}

// Call invokes method with args and returns the decoded result.
// A remote fault is returned as a *Fault error.
func (c *Client) Call(ctx context.Context, method string, args ...any) (any, error) {
	var result any
	err := c.CallInto(ctx, method, &result, args...)
	return result, err
}

// CallInto invokes method with args, which may be any encodable values,
// and decodes the result into *out as DecodeResponseInto does: a result
// overwrites *out, a fault (returned as a *Fault error) or a reply that
// does not decode zeroes it.
func (c *Client) CallInto(ctx context.Context, method string, out any, args ...any) error {
	body, err := EncodeRequest(method, args)
	if err != nil {
		return err
	}
	ep := c.endpoint.Load()
	if ep == nil || ep.url != c.URL {
		req, err := http.NewRequest(http.MethodPost, c.URL, nil)
		if err != nil {
			return err
		}
		ep = &endpoint{c.URL, req}
		c.endpoint.Store(ep)
	}
	req := ep.req.WithContext(ctx)
	req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	// Keys are canonical where they are set (WithCallHeader; Headers by
	// whoever fills it), so none is canonicalized again per request.
	req.Header = make(http.Header, 1+len(c.Headers)+2)
	req.Header["Content-Type"] = contentType
	for k, v := range c.Headers {
		req.Header[k] = []string{v}
	}
	for _, h := range callHeaders(ctx) {
		req.Header[h.key] = []string{h.value}
	}
	httpClient := c.HTTP
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return fmt.Errorf("xmlrpc: calling %s: %w", method, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("xmlrpc: %s returned HTTP %d: %s", method, resp.StatusCode, snippet)
	}
	var derr error
	if err := encode(func(buf []byte) ([]byte, error) { return readBody(resp.Body, resp.ContentLength, buf) },
		func(raw []byte) { derr = decodeResponse(raw, out) }); err != nil {
		return fmt.Errorf("xmlrpc: reading %s response: %w", method, err)
	}
	return derr
}
