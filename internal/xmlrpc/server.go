package xmlrpc

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// Handler executes a single XML-RPC method. Args carry the decoded
// parameters; the returned value may be any encodable one (see package
// doc), a tagged struct or a slice of them included.
// Returning a *Fault propagates it verbatim; any other error becomes a
// FaultInternal with the error text.
type Handler func(ctx context.Context, args []any) (any, error)

// ServeMux dispatches XML-RPC method calls to registered handlers and
// implements http.Handler. Method names are conventionally
// "service.method" (e.g. "jobmon.status"), matching Clarens conventions.
type ServeMux struct {
	mu       sync.RWMutex
	handlers map[string]Handler

	// Intercept, if non-nil, wraps every dispatch. Clarens uses it to
	// enforce sessions and ACLs without teaching this package about
	// either concept.
	Intercept func(ctx context.Context, method string, args []any, next Handler) (any, error)
}

// NewServeMux returns an empty mux with the built-in system.listMethods
// introspection method registered.
func NewServeMux() *ServeMux {
	m := &ServeMux{handlers: make(map[string]Handler)}
	m.Handle("system.listMethods", func(context.Context, []any) (any, error) {
		return m.Methods(), nil
	})
	return m
}

// Handle registers a handler for the given method name, replacing any
// existing registration.
func (m *ServeMux) Handle(method string, h Handler) {
	if method == "" || h == nil {
		panic("xmlrpc: Handle with empty method or nil handler")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[method] = h
}

// Methods returns the registered method names, sorted.
func (m *ServeMux) Methods() []string {
	m.mu.RLock()
	names := make([]string, 0, len(m.handlers))
	for k := range m.handlers {
		names = append(names, k)
	}
	m.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Dispatch runs one decoded request through the interceptor and handler.
func (m *ServeMux) Dispatch(ctx context.Context, method string, args []any) (any, error) {
	m.mu.RLock()
	h, ok := m.handlers[method]
	intercept := m.Intercept
	m.mu.RUnlock()
	if !ok {
		return nil, NewFault(FaultMethodNotFound, "no such method %q", method)
	}
	if intercept != nil {
		return intercept(ctx, method, args, h)
	}
	return h(ctx, args)
}

// ServeHTTP implements http.Handler: it decodes one method call from the
// request body, dispatches it, and writes the response or fault.
func (m *ServeMux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "xmlrpc requires POST", http.StatusMethodNotAllowed)
		return
	}
	body, err := readBody(r.Body, r.ContentLength)
	if err != nil {
		writeFault(w, NewFault(FaultParse, "parse error: request %v", err))
		return
	}
	req, err := decodeRequest(body)
	if err != nil {
		writeFault(w, NewFault(FaultParse, "parse error: %v", err))
		return
	}
	result, err := m.Dispatch(r.Context(), req.Method, req.Args)
	if err != nil {
		writeFault(w, toFault(err))
		return
	}
	// The response is written from the scratch buffer it was built in.
	if err := encodeResponse(result, func(doc []byte) { writeDocument(w, doc) }); err != nil {
		writeFault(w, NewFault(FaultInternal, "unencodable result: %v", err))
	}
}

func toFault(err error) *Fault {
	if f, ok := AsFault(err); ok {
		return f
	}
	return NewFault(FaultInternal, "%v", err)
}

func writeFault(w http.ResponseWriter, f *Fault) {
	// Faults ride on HTTP 200 per the XML-RPC specification.
	writeDocument(w, EncodeFault(f))
}

// writeDocument sends a response with its length declared (net/http would
// chunk anything over 2 KiB); the client sizes its read buffer from it.
func writeDocument(w http.ResponseWriter, doc []byte) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
	w.Write(doc)
}

// Params provides positional, type-checked access to handler arguments:
// an arity check and decoding into typed parameters under Unmarshal's
// rules.
type Params []any

// Len returns the number of arguments.
func (p Params) Len() int { return len(p) }

// Want returns a FaultInvalidParams unless exactly n arguments are present.
func (p Params) Want(n int) error {
	if len(p) != n {
		return NewFault(FaultInvalidParams, "got %d arguments, want %d", len(p), n)
	}
	return nil
}

// Into decodes argument i into *out, a typed parameter, under Unmarshal's
// rules.
func (p Params) Into(i int, out any) error {
	if i >= len(p) {
		return NewFault(FaultInvalidParams, "missing argument %d", i)
	}
	if err := Unmarshal(p[i], out); err != nil {
		return NewFault(FaultInvalidParams, "argument %d: %v", i, err)
	}
	return nil
}
