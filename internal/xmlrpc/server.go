package xmlrpc

import (
	"context"
	"net/http"
	"strconv"
)

// Handler executes a single XML-RPC method. Args carry the decoded
// parameters; the returned value may be any encodable one (see package
// doc), a tagged struct or a slice of them included.
// Returning a *Fault propagates it verbatim; any other error becomes a
// FaultInternal with the error text.
type Handler func(ctx context.Context, args []any) (any, error)

// Serve answers one XML-RPC request: it decodes the method call from the
// request body, passes it to dispatch with the request's context, and
// writes the result or fault. The host that calls it owns the method
// table, and with it the fault for an unknown method.
func Serve(w http.ResponseWriter, r *http.Request, dispatch func(ctx context.Context, method string, args []any) (any, error)) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "xmlrpc requires POST", http.StatusMethodNotAllowed)
		return
	}
	req, err := (*Request)(nil), error(nil)
	if rerr := encode(func(buf []byte) ([]byte, error) { return readBody(r.Body, r.ContentLength, buf) },
		func(body []byte) { req, err = decodeRequest(body) }); rerr != nil {
		writeFault(w, NewFault(FaultParse, "parse error: request %v", rerr))
		return
	}
	if err != nil {
		writeFault(w, NewFault(FaultParse, "parse error: %v", err))
		return
	}
	result, err := dispatch(r.Context(), req.Method, req.Args)
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
