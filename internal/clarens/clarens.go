// Package clarens reproduces the Clarens Grid-enabled web services
// framework, the "backbone" hosting every GAE service in the paper.
//
// Clarens (Steenberg et al., CHEP 2004) gives hosted services four things,
// all reproduced here over the stdlib HTTP stack and this repository's
// XML-RPC codec:
//
//   - a web-service host: services register named methods, dispatched as
//     "service.method" XML-RPC calls over HTTP POST; Server holds the
//     method table and the service records itself, and xmlrpc.Serve hands
//     it each decoded call
//   - authentication: system.auth issues session tokens; requests carry
//     the token in the X-Clarens-Session header
//   - access control: per-method ACLs checked on every dispatch; a rule
//     allows, and a call no rule allows is denied
//   - lookup and discovery: a registry of hosted services, federated
//     peer-to-peer so a client of one Clarens host can discover services
//     hosted by any connected peer (the paper's "peer-to-peer based
//     lookup service")
//
// A call is refused, in this order, for an unknown method, while the host
// drains, and when the caller's session does not pass the ACL. The Figure
// 6 experiment (Job Monitoring Service response time versus parallel
// clients) exercises this exact path: HTTP → method lookup → drain check
// → session and ACL check → service dispatch → XML-RPC response.
package clarens

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/telemetry"
)

// callInfo is what a handler context carries about the call being served:
// one context value, set once per request by Server.ServeHTTP, which also
// writes the reply through it.
type callInfo struct {
	token     string   // session token ("" when unauthenticated)
	requestID string   // idempotency key ("" when unstamped)
	session   *Session // the session dispatch checked the ACL against

	// span times the call from the request's first byte read to the
	// reply's first byte written. Dispatch marks the decode and session
	// stages; a method row's journal goes on from there (CallSpan); Write
	// marks the encode and adds the span to the ring the journal named.
	span telemetry.OpenSpan
	http.ResponseWriter
}

// Write closes the call's span before the reply's first byte is written.
func (ci *callInfo) Write(b []byte) (int, error) {
	if ci.span.Ring != nil {
		ci.span.Mark("encode")
		ci.span.Close()
	}
	return ci.ResponseWriter.Write(b)
}

type callInfoKey struct{}

// callInfoOf returns the call a handler context serves, or nil.
func callInfoOf(ctx context.Context) *callInfo {
	ci, _ := ctx.Value(callInfoKey{}).(*callInfo)
	return ci
}

// Caller returns the user of the session the host checked the call's ACL
// against, as that check found it; empty when the call had no session or
// was not served by a host.
func Caller(ctx context.Context) string {
	if ci := callInfoOf(ctx); ci != nil && ci.session != nil {
		return ci.session.User.Name
	}
	return ""
}

// RequestID extracts the caller's idempotency key from a handler context;
// empty when the call was not stamped. The key identifies one logical
// mutation across retries: a server that has already applied it returns
// the recorded result instead of applying it again.
func RequestID(ctx context.Context) string {
	if ci := callInfoOf(ctx); ci != nil {
		return ci.requestID
	}
	return ""
}

// CallSpan returns the open span of the call a host is serving; nil off
// the wire.
func CallSpan(ctx context.Context) *telemetry.OpenSpan {
	if ci := callInfoOf(ctx); ci != nil && !ci.span.Start.IsZero() {
		return &ci.span
	}
	return nil
}

// WithRequestID stamps an idempotency key onto a context. On the wire the
// key travels in RequestIDHeader; on the local transport the context
// reaches the service layer directly.
func WithRequestID(ctx context.Context, id string) context.Context {
	ci := &callInfo{requestID: id}
	if old := callInfoOf(ctx); old != nil {
		ci.token, ci.session = old.token, old.session
	}
	return context.WithValue(ctx, callInfoKey{}, ci)
}

// ErrBadCredentials is returned by Authenticator implementations.
var ErrBadCredentials = errors.New("clarens: bad credentials")

// SessionHeader is the HTTP header carrying the Clarens session token.
const SessionHeader = "X-Clarens-Session"

// RequestIDHeader is the HTTP header carrying a mutating call's
// idempotency key.
const RequestIDHeader = "X-Clarens-Request-Id"
