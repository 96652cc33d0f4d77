package xmlrpc

import "fmt"

// Well-known fault codes used across the GAE services. The numbering
// follows the XML-RPC "specification for fault code interoperability"
// draft that Clarens-era services adopted.
const (
	FaultParse          = -32700 // malformed request XML
	FaultMethodNotFound = -32601 // unknown service.method
	FaultInvalidParams  = -32602 // wrong argument count or type
	FaultInternal       = -32603 // handler returned a non-fault error
	FaultApplication    = -32500 // generic application error
	FaultAuth           = -32401 // authentication / authorization failure
	FaultUnavailable    = -32503 // server temporarily unavailable (draining, overloaded); safe to retry
)

// Fault is an XML-RPC fault: the remote peer executed the call and reports
// a structured error. Fault implements error so handlers can return one
// directly and clients can errors.As it out of a Call failure.
type Fault struct {
	Code    int
	Message string
}

// NewFault builds a fault with a formatted message.
func NewFault(code int, format string, args ...any) *Fault {
	return &Fault{Code: code, Message: fmt.Sprintf(format, args...)}
}

func (f *Fault) Error() string {
	return fmt.Sprintf("xmlrpc fault %d: %s", f.Code, f.Message)
}

// IsFault reports whether err is (or wraps) a *Fault with the given code.
func IsFault(err error, code int) bool {
	f, ok := AsFault(err)
	return ok && f.Code == code
}

// AsFault extracts a *Fault from err's chain.
func AsFault(err error) (*Fault, bool) {
	for err != nil {
		if f, ok := err.(*Fault); ok {
			return f, true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil, false
		}
		err = u.Unwrap()
	}
	return nil, false
}
