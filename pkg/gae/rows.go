package gae

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/internal/clarens"
	"repro/internal/xmlrpc"
)

// This file is the API's one table of methods. Each method of the eight
// service interfaces is one row, declared beside its interface: its wire
// name, whether it mutates, and its typed call, a method expression on the
// interface. Everything else reads the rows: a Client method calls its row
// (client.go), which on the remote transport encodes the arguments and
// stamps a mutating call with a request ID, and on the local one calls the
// service inside the deployment's Journal; Handlers binds
// the rows to the wire, decoding positional parameters into the row's
// types before entering that local path; journal replay decodes a
// record's arguments through the same row (Method.Call), and so does the
// gae command, after Lookup finds the row by wire name. Arity is checked
// exactly, for every method.

// A Method is one row of the API, as the code that does not know its
// types sees it.
type Method struct {
	// Name is the wire name, "service.method".
	Name string
	// Op is the name the row is journaled, deduplicated and measured
	// under: Name, but for SetPreference, which shares its wire name with
	// the Preference read.
	Op string
	// Mutates marks a row that changes deployment state. Its remote calls
	// carry a request ID; its local calls are journaled.
	Mutates bool

	arity int
	// optional lets the last argument be left off the wire; it is then
	// the zero value, and the client leaves a zero value off.
	optional bool
	call     func(c *Client, ctx context.Context, args xmlrpc.Params, into Into) (any, error)
}

// Into decodes argument i of args into dst, a pointer to the parameter's
// type: xmlrpc.Params.Into on the wire, a JSON decoder on journal replay.
type Into func(args xmlrpc.Params, i int, dst any) error

// reads and writes say whether a row mutates.
const reads, writes = false, true

// methods is every row, in declaration order.
var methods []*Method

// Methods returns every row of the API.
func Methods() []*Method { return methods }

// define fills in and lists the untyped half of a row.
func define(m *Method, name string, mutates bool, arity int, call func(*Client, context.Context, xmlrpc.Params, Into) (any, error)) {
	*m = Method{Name: name, Op: name, Mutates: mutates, arity: arity, call: call}
	methods = append(methods, m)
}

// Call decodes args through into and makes the row's call on c: the
// local transport's services, inside c's Journal when it has one and bare
// when it has none, as on replay.
func (m *Method) Call(c *Client, ctx context.Context, args xmlrpc.Params, into Into) (any, error) {
	if n := len(args); n != m.arity && !(m.optional && n == m.arity-1) {
		if m.optional {
			return nil, xmlrpc.NewFault(xmlrpc.FaultInvalidParams, "got %d arguments, want %d or %d", n, m.arity-1, m.arity)
		}
		return nil, args.Want(m.arity)
	}
	return m.call(c, ctx, args, into)
}

// decode decodes the arguments args holds into dst, in order; a missing
// optional one keeps its zero value.
func decode(args xmlrpc.Params, into Into, dst ...any) error {
	for i := range args {
		if err := into(args, i, dst[i]); err != nil {
			return err
		}
	}
	return nil
}

// Handlers binds the rows of service ("steering") to the wire, calling
// them on c. It groups the rows by name once; a call picks its row by
// argument count, as Lookup does: steering.preference reads with no
// argument and sets with one.
func Handlers(service string, c *Client) map[string]xmlrpc.Handler {
	byName := make(map[string][]*Method)
	for _, m := range methods {
		if name, ok := strings.CutPrefix(m.Name, service+"."); ok {
			byName[name] = append(byName[name], m)
		}
	}
	hs := make(map[string]xmlrpc.Handler, len(byName))
	for name, rows := range byName {
		hs[name] = func(ctx context.Context, args []any) (any, error) {
			m, err := pick(rows, len(args))
			if err != nil {
				return nil, err
			}
			return wireResult(m.Call(c, ctx, args, xmlrpc.Params.Into))
		}
	}
	return hs
}

// Lookup returns the row a call of the wire name with n arguments makes,
// as a served call resolves it.
func Lookup(name string, n int) (*Method, error) {
	rows := slices.DeleteFunc(slices.Clone(methods), func(m *Method) bool { return m.Name != name })
	if len(rows) == 0 {
		return nil, xmlrpc.NewFault(xmlrpc.FaultMethodNotFound, "no such method %q", name)
	}
	return pick(rows, n)
}

// pick returns the row of rows, which share a wire name, that a call of
// n arguments makes: the one row of a name whatever n is (its Call checks
// the count), else the row of arity n.
func pick(rows []*Method, n int) (*Method, error) {
	for _, m := range rows {
		if m.arity == n || len(rows) == 1 {
			return m, nil
		}
	}
	return nil, xmlrpc.NewFault(xmlrpc.FaultInvalidParams, "got %d arguments, want %d or %d", n, rows[0].arity, rows[1].arity)
}

// SiteHandlers binds the named rows of service, whose first argument is a
// site, to the wire with that argument fixed to site, under their short
// names: the site-local methods of a federation's site host
// ("estimator-siteA.runtime" is estimator.runtime at siteA).
func SiteHandlers(service, site string, c *Client, names ...string) map[string]xmlrpc.Handler {
	hs := make(map[string]xmlrpc.Handler, len(names))
	for _, m := range methods {
		if name, ok := strings.CutPrefix(m.Name, service+"."); ok && slices.Contains(names, name) {
			hs[name] = func(ctx context.Context, args []any) (any, error) {
				if err := xmlrpc.Params(args).Want(m.arity - 1); err != nil {
					return nil, err
				}
				return wireResult(m.Call(c, ctx, append(xmlrpc.Params{site}, args...), siteInto))
			}
		}
	}
	return hs
}

// siteInto decodes the arguments of a site-local call: the site its
// handler put first, then the wire's, numbered as the wire numbers them.
func siteInto(args xmlrpc.Params, i int, dst any) error {
	if i == 0 {
		return xmlrpc.Unmarshal(args[0], dst)
	}
	return args[1:].Into(i-1, dst)
}

// wireResult passes a typed result on, converting a service error to a
// fault: ErrNoSession to an authentication fault, any other to an
// application fault.
func wireResult(v any, err error) (any, error) {
	switch _, isFault := xmlrpc.AsFault(err); {
	case err == nil:
		return v, nil
	case isFault:
		return nil, err
	case errors.Is(err, ErrNoSession):
		return nil, xmlrpc.NewFault(xmlrpc.FaultAuth, "no session")
	}
	return nil, xmlrpc.NewFault(xmlrpc.FaultApplication, "%v", err)
}

// A Journal runs every call of a local client: the deployment's holds its
// one lock across each, so no two calls and no step of its engine
// interleave. A mutating call it also journals: it answers a request ID it
// acknowledged with the result it acknowledged, and acknowledges a call
// once its journal record is durable. Begin takes the lock; End, which
// follows every Begin, releases it — for a read that is all they do. Only
// values cross, so a call allocates nothing to cross.
type Journal interface {
	// Begin opens a call of row m; an error refuses it.
	Begin(ctx context.Context, m *Method) (Pending, error)
	// End closes the call with its journal arguments and JSON result,
	// each given only if p asked for it, and the error it ended with, and
	// returns the error it answers with.
	End(p Pending, args []any, result []byte, err error) error
}

// Pending is a call between its Journal's Begin and End.
type Pending struct {
	Op, User, RequestID string
	// Mutates is the row's flag: End of a read only releases the lock.
	Mutates bool
	// Start is when Begin was entered, Applied when the service returned
	// (zero if it was not called).
	Start, Applied time.Time
	// Acked marks a request ID acknowledged before, with Result.
	Acked  bool
	Result []byte
	// Journaling asks End for the journal arguments, Recording for the
	// JSON result.
	Journaling, Recording bool
}

// local makes one call of row r on c's local transport. apply calls the
// service; args gives the call's arguments as the journal records them,
// resolved from the result out.
func local[S, R any](c *Client, ctx context.Context, r *Method, apply func(S) (R, error), args func(out R) []any) (out R, err error) {
	s := serviceOf[S](&c.services)
	if c.journal == nil {
		return apply(s)
	}
	var rec []any
	var result []byte
	p, err := c.journal.Begin(ctx, r)
	defer func() {
		if err = c.journal.End(p, rec, result, err); err != nil {
			var zero R
			out = zero
		}
	}()
	switch {
	case err != nil:
	case p.Acked:
		var acked R
		if len(p.Result) > 0 {
			if err = json.Unmarshal(p.Result, &acked); err != nil {
				return out, fmt.Errorf("gae: decoding recorded %s result: %w", r.Op, err)
			}
		}
		out = acked
	case !r.Mutates:
		out, err = apply(s)
	default:
		out, err = apply(s)
		p.Applied = time.Now()
		if err == nil && p.Journaling {
			rec = args(out)
		}
		if err == nil && p.Recording {
			result, _ = json.Marshal(out)
		}
	}
	return out, err
}

// remoteCall makes a row's call over the wire, decoding the result into R
// in one pass. A mutating row's call carries the request ID WithRequestID
// pinned on ctx, or one minted here, on every attempt, so the server
// applies it at most once however often it is retried; every attempt
// starts from a zero R.
func remoteCall[R any](ctx context.Context, r *remote, m *Method, args ...any) (R, error) {
	if m.Mutates {
		rid := clarens.RequestID(ctx)
		if rid == "" {
			rid = r.ids.next()
		}
		ctx = xmlrpc.WithCallHeader(ctx, clarens.RequestIDHeader, rid)
	}
	if m.optional && reflect.ValueOf(args[len(args)-1]).IsZero() {
		args = args[:len(args)-1]
	}
	var out R
	err := r.retry.do(ctx, func(ctx context.Context) error { return r.c.CallInto(ctx, m.Name, &out, args...) })
	return out, err
}

// serviceOf returns the first service of s, in field order, that
// implements S: the one in S's own field, unless a service in an earlier
// field implements S too.
func serviceOf[S any](s *Services) S {
	for _, svc := range [...]any{s.Scheduler, s.Steering, s.JobMon, s.Estimator, s.Quota, s.Replica, s.Monitor, s.State} {
		if svc, ok := svc.(S); ok {
			return svc
		}
	}
	panic(fmt.Sprintf("gae: the client has no %T service", (*S)(nil)))
}

// Row0 is a row of no arguments.
type Row0[S, R any] struct {
	Method
	fn func(S, context.Context) (R, error)
}

func row0[S, R any](name string, mutates bool, fn func(S, context.Context) (R, error)) *Row0[S, R] {
	r := &Row0[S, R]{fn: fn}
	define(&r.Method, name, mutates, 0, r.bind)
	return r
}

func (r *Row0[S, R]) call(c *Client, ctx context.Context) (R, error) {
	if c.remote != nil {
		return remoteCall[R](ctx, c.remote, &r.Method)
	}
	return local(c, ctx, &r.Method, func(s S) (R, error) { return r.fn(s, ctx) }, func(R) []any { return nil })
}

func (r *Row0[S, R]) bind(c *Client, ctx context.Context, _ xmlrpc.Params, _ Into) (any, error) {
	return r.call(c, ctx)
}

// Row1 is a row of one argument.
type Row1[S, A, R any] struct {
	Method
	fn func(S, context.Context, A) (R, error)
	// record, if set, gives the argument the journal records, resolved
	// from the call's result.
	record func(R) A
}

func row1[S, A, R any](name string, mutates bool, fn func(S, context.Context, A) (R, error)) *Row1[S, A, R] {
	r := &Row1[S, A, R]{fn: fn}
	define(&r.Method, name, mutates, 1, r.bind)
	return r
}

// journalsAs makes the row journal as op, recording its argument as
// record resolves it from the result.
func (r *Row1[S, A, R]) journalsAs(op string, record func(R) A) *Row1[S, A, R] {
	r.Op, r.record = op, record
	return r
}

func (r *Row1[S, A, R]) call(c *Client, ctx context.Context, a A) (R, error) {
	if c.remote != nil {
		return remoteCall[R](ctx, c.remote, &r.Method, a)
	}
	return local(c, ctx, &r.Method, func(s S) (R, error) { return r.fn(s, ctx, a) }, func(out R) []any {
		if r.record != nil {
			a = r.record(out)
		}
		return []any{a}
	})
}

func (r *Row1[S, A, R]) bind(c *Client, ctx context.Context, args xmlrpc.Params, into Into) (any, error) {
	var a A
	if err := decode(args, into, &a); err != nil {
		return nil, err
	}
	return r.call(c, ctx, a)
}

// Row2 is a row of two arguments.
type Row2[S, A, B, R any] struct {
	Method
	fn func(S, context.Context, A, B) (R, error)
}

func row2[S, A, B, R any](name string, mutates bool, fn func(S, context.Context, A, B) (R, error)) *Row2[S, A, B, R] {
	r := &Row2[S, A, B, R]{fn: fn}
	define(&r.Method, name, mutates, 2, r.bind)
	return r
}

func (r *Row2[S, A, B, R]) call(c *Client, ctx context.Context, a A, b B) (R, error) {
	if c.remote != nil {
		return remoteCall[R](ctx, c.remote, &r.Method, a, b)
	}
	return local(c, ctx, &r.Method, func(s S) (R, error) { return r.fn(s, ctx, a, b) }, func(R) []any { return []any{a, b} })
}

func (r *Row2[S, A, B, R]) bind(c *Client, ctx context.Context, args xmlrpc.Params, into Into) (any, error) {
	var a A
	var b B
	if err := decode(args, into, &a, &b); err != nil {
		return nil, err
	}
	return r.call(c, ctx, a, b)
}

// Row3 is a row of three arguments.
type Row3[S, A, B, C, R any] struct {
	Method
	fn func(S, context.Context, A, B, C) (R, error)
	// record, if set, gives the last argument the journal records,
	// resolved from the call's result.
	record func(R) C
}

func row3[S, A, B, C, R any](name string, mutates bool, fn func(S, context.Context, A, B, C) (R, error)) *Row3[S, A, B, C, R] {
	r := &Row3[S, A, B, C, R]{fn: fn}
	define(&r.Method, name, mutates, 3, r.bind)
	return r
}

// optionalLast lets the last argument be left off the wire when it is
// zero, and makes the journal record it as record resolves it from the
// result.
func (r *Row3[S, A, B, C, R]) optionalLast(record func(R) C) *Row3[S, A, B, C, R] {
	r.optional, r.record = true, record
	return r
}

func (r *Row3[S, A, B, C, R]) call(cl *Client, ctx context.Context, a A, b B, c C) (R, error) {
	if cl.remote != nil {
		return remoteCall[R](ctx, cl.remote, &r.Method, a, b, c)
	}
	return local(cl, ctx, &r.Method, func(s S) (R, error) { return r.fn(s, ctx, a, b, c) }, func(out R) []any {
		if r.record != nil {
			c = r.record(out)
		}
		return []any{a, b, c}
	})
}

func (r *Row3[S, A, B, C, R]) bind(cl *Client, ctx context.Context, args xmlrpc.Params, into Into) (any, error) {
	var a A
	var b B
	var c C
	if err := decode(args, into, &a, &b, &c); err != nil {
		return nil, err
	}
	return r.call(cl, ctx, a, b, c)
}

// acked2 and acked3 give a command the result its call acknowledges:
// XML-RPC has no void, so the conventional true.
func acked2[S, A, B any](fn func(S, context.Context, A, B) error) func(S, context.Context, A, B) (bool, error) {
	return func(s S, ctx context.Context, a A, b B) (bool, error) { return true, fn(s, ctx, a, b) }
}

func acked3[S, A, B, C any](fn func(S, context.Context, A, B, C) error) func(S, context.Context, A, B, C) (bool, error) {
	return func(s S, ctx context.Context, a A, b B, c C) (bool, error) { return true, fn(s, ctx, a, b, c) }
}

// errOf drops a command's acknowledgement.
func errOf(_ bool, err error) error { return err }
