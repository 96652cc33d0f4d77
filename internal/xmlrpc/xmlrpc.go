// Package xmlrpc implements the XML-RPC wire protocol: a codec of its own
// (a scanner and an appender for the twenty-odd tags XML-RPC has) under
// net/http, a client, and Serve, which answers one request through a
// dispatch function. The host owns the method table: in this repository
// that is the Clarens server, which also checks sessions and ACLs.
//
// The Clarens framework that hosts every GAE service speaks XML-RPC, so
// this package is the transport substrate of the whole reproduction: the
// steering, job-monitoring and estimator services are all exposed through
// it, and Figure 6's response-time measurements exercise this code path
// end to end.
//
// # Accepted documents
//
// The decoder reads UTF-8 documents of at most MaxRequestBytes. It
// accepts what the encoder emits and what XML-RPC peers send: an <?xml?>
// declaration (version 1.0; encoding UTF-8 or none), comments, processing
// instructions, whitespace between tags and after a tag's name,
// <value>text</value> and <value/> as strings, self-closing <string/>,
// <nil/>, <params/>, <i4> and <i8>, booleans as 0/1/true/false, dateTime
// as 20060102T15:04:05, RFC 3339 or 2006-01-02T15:04:05, base64 with
// embedded whitespace, CDATA, the five predefined entities and decimal or
// hexadecimal character references. Literal CR and CRLF fold to LF; of
// struct members with one name the last wins; <data> is optional in an
// <array>; unknown elements beside <methodName>, <params> and <fault> are
// skipped. A document must be well-formed to its end — tags matched and
// closed, valid UTF-8, only characters in XML's Char range — and may nest
// its elements 256 deep, which bounds the decoder's recursion.
//
// Four XML features that XML-RPC peers do not use are refused: DOCTYPE and
// other <! directives, attributes, names that carry a namespace prefix or
// are not ASCII, and a declared encoding other than UTF-8.
// FuzzDecodeAgainstEncodingXML holds the decoder to exactly this contract
// against an encoding/xml implementation kept as a test oracle.
//
// Supported types follow the XML-RPC specification:
//
//	Go                      XML-RPC
//	int, int8..int64        <int> / <i4>  (must fit in 32 bits on the wire)
//	uint, uint8..uint64     <int>         (likewise)
//	bool                    <boolean>
//	string                  <string>
//	float32, float64        <double>
//	time.Time               <dateTime.iso8601>
//	[]byte                  <base64>
//	struct, map[string]T    <struct>      (members per the xmlrpc tags; see marshal.go)
//	[]T, [N]T               <array>
//	*T, interface           what it points to or holds
//	nil                     <nil/> (common extension, accepted and emitted)
//
// The codec goes between typed values and documents in one walk each way:
// EncodeRequest, EncodeResponse and what a Handler returns take any value
// of these types; Client.CallInto and DecodeResponseInto fill a typed
// destination under Unmarshal's rules. An interface{} destination (Call,
// DecodeResponse, a Handler's arguments) receives the canonical Go types
// int, bool, string, float64, time.Time, []byte, map[string]any and []any.
// Marshal and Unmarshal convert between typed values and that canonical
// tree: composed with the encoder and decoder they are the two passes the
// one walk replaced, and what its tests hold it to.
package xmlrpc

import "errors"

// ErrUnsupportedType is returned when a Go value cannot be represented as
// an XML-RPC value.
var ErrUnsupportedType = errors.New("xmlrpc: unsupported type")

// MaxRequestBytes bounds a message body in both directions: the server
// answers a larger request with a FaultParse naming this bound, and the
// client gives up on a larger response.
const MaxRequestBytes = 8 << 20
