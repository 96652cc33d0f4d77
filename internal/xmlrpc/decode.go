package xmlrpc

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Request is a decoded XML-RPC method call.
type Request struct {
	Method string
	Args   []any
}

// errTooLarge reports a message body over MaxRequestBytes.
var errTooLarge = errors.New("exceeds MaxRequestBytes")

// DecodeRequest parses a <methodCall> document.
func DecodeRequest(r io.Reader) (*Request, error) {
	body, err := readBody(r, -1, nil)
	if err != nil {
		return nil, fmt.Errorf("xmlrpc: reading methodCall: %w", err)
	}
	return decodeRequest(body)
}

// DecodeResponse parses a <methodResponse> document, returning the result
// value or a *Fault as the error.
func DecodeResponse(r io.Reader) (any, error) {
	var result any
	err := DecodeResponseInto(r, &result)
	return result, err
}

// DecodeResponseInto parses a <methodResponse> document into *out, under
// Unmarshal's rules and without building the tree Unmarshal reads: structs
// take their members, slices their elements and scalars their values as
// the scanner meets them. A fault is returned as the *Fault error. *out is
// overwritten, never merged into, and is left zero on any error.
func DecodeResponseInto(r io.Reader, out any) error {
	body, err := readBody(r, -1, nil)
	if err != nil {
		return fmt.Errorf("xmlrpc: reading methodResponse: %w", err)
	}
	return decodeResponse(body, out)
}

// readBody reads a message body of at most MaxRequestBytes into buf, grown
// to the body's declared size (negative: unknown). On an error it returns
// buf emptied, so a pooled buffer keeps what it has grown to.
func readBody(r io.Reader, size int64, buf []byte) ([]byte, error) {
	if size < 0 || size > MaxRequestBytes {
		size = 1024
	}
	if buf = buf[:0]; cap(buf) <= int(size) {
		buf = make([]byte, 0, size+1) // +1: the Read that reports EOF needs room
	}
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > MaxRequestBytes:
			return buf[:0], errTooLarge
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return buf[:0], err
		case len(buf) == cap(buf):
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

func decodeRequest(body []byte) (*Request, error) {
	s := scanner{buf: body}
	req := &Request{}
	if name := s.next("", nil); string(name) != "methodCall" {
		s.fail("root element is not <methodCall>")
	}
	for name := s.next("methodCall", nil); name != nil; name = s.next("methodCall", nil) {
		switch string(name) {
		case "methodName":
			req.Method = string(bytes.TrimSpace(s.text(name)))
		case "params":
			req.Args, _ = s.params(reflect.Value{})
		default:
			s.skip(string(name))
		}
	}
	if s.skip(""); s.err == nil && req.Method == "" {
		s.err = errors.New("xmlrpc: methodCall missing methodName")
	}
	if s.err != nil {
		return nil, s.err
	}
	return req, nil
}

// errRedo is the direct walk into a typed destination giving up on a
// document, well-formed so far, whose value the destination cannot hold or
// whose shape only a tree decides (a member repeated, named twice or valued
// before its name; a second value in a <param>): decodeResponse decodes a
// tree and leaves the verdict to unmarshalValue, as the two steps did.
var errRedo = errors.New("xmlrpc: document needs the tree")

func decodeResponse(body []byte, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("xmlrpc: decoding into non-pointer %T", out)
	}
	rv = rv.Elem()
	rv.SetZero()
	_, err := scanResponse(body, rv)
	if err == errRedo {
		var tree any
		rv.SetZero()
		if tree, err = scanResponse(body, reflect.Value{}); err == nil {
			err = unmarshalValue(tree, rv)
		}
	}
	if err != nil {
		rv.SetZero()
	}
	return err
}

// scanResponse decodes the result into dst or, dst being invalid, returns
// it as a tree.
func scanResponse(body []byte, dst reflect.Value) (any, error) {
	s := scanner{buf: body}
	var result any
	var fault *Fault
	answered := false
	if name := s.next("", nil); string(name) != "methodResponse" {
		s.fail("root element is not <methodResponse>")
	}
	for name := s.next("methodResponse", nil); name != nil; name = s.next("methodResponse", nil) {
		// The first params or fault element is the answer; what follows
		// it only has to be well-formed.
		switch {
		case answered || string(name) != "params" && string(name) != "fault":
			s.skip(string(name))
		case string(name) == "fault":
			fault, answered = s.fault(), true
		default:
			args, n := s.params(dst)
			if s.err == nil && n != 1 {
				s.err = fmt.Errorf("xmlrpc: response carries %d params, want 1", n)
			} else if len(args) == 1 {
				result = args[0]
			}
			answered = true
		}
	}
	switch s.skip(""); {
	case s.err != nil:
		return nil, s.err
	case !answered:
		return nil, errors.New("xmlrpc: empty methodResponse")
	case fault != nil:
		return nil, fault
	}
	return result, nil
}

// scanner walks one XML-RPC document held in memory, one loop over next per
// element, and knows the subset of XML the package comment lists. Once err
// is set, every read returns nothing.
type scanner struct {
	buf []byte
	pos int
	err error
	// selfClosed: <x/>'s start half was read, so x's end tag is next.
	selfClosed bool
	// depth counts the open elements; the walk recurses once per level, so
	// bounding it bounds the stack a hostile document can take.
	depth int
}

// maxDepth is the deepest element nesting accepted; the deepest pkg/gae
// wire type nests 20 elements.
const maxDepth = 256

// fail sets the scanner's error, unless one is set, and returns nil.
func (s *scanner) fail(format string, args ...any) []byte {
	if s.err == nil {
		s.err = fmt.Errorf("xmlrpc: offset %d: %s", s.pos, fmt.Sprintf(format, args...))
	}
	return nil
}

// class sorts bytes. plainByte marks what character data carries as it
// is: ASCII other than '<', '&', '>' (which may end a "]]>") and the
// controls XML refuses or folds. A name is a nameStart byte, then nameRest
// bytes; a nameBad byte (a prefix's ':', non-ASCII) makes it unsupported.
var class = func() (t [256]uint8) {
	for c := range t {
		if c == '\t' || c == '\n' || c >= 0x20 && c < utf8.RuneSelf && c != '<' && c != '&' && c != '>' {
			t[c] = plainByte
		}
		switch {
		case c|0x20 >= 'a' && c|0x20 <= 'z' || c == '_':
			t[c] |= nameStart | nameRest
		case c >= '0' && c <= '9' || c == '.' || c == '-':
			t[c] |= nameRest
		case c == ':' || c >= utf8.RuneSelf:
			t[c] |= nameBad
		}
	}
	return t
}()

const (
	plainByte = 1 << iota
	nameStart
	nameRest
	nameBad
)

// next reads on to the next tag: a start tag, whose name it returns, or the
// end tag of elem, the innermost open element, the only end tag accepted
// (outside the root, elem is "" and the end of input reads as one). Text
// and CDATA on the way are checked and, text not nil, collected into
// *text. elem reaches an error only as a copy, so a caller may pass bytes
// converted to a string on its stack.
func (s *scanner) next(elem string, text *[]byte) []byte {
	if s.err != nil {
		return nil
	}
	if s.selfClosed {
		s.selfClosed = false
		s.depth--
		return nil
	}
	for {
		if s.pos < len(s.buf) && s.buf[s.pos] != '<' && !s.chars(text) {
			return nil
		}
		rest := s.buf[s.pos:]
		switch {
		case len(rest) == 0 && elem == "":
			return nil
		case len(rest) < 2:
			return s.fail("unexpected end of document inside <%s>", strings.Clone(elem))
		case rest[1] == '/' && elem != "" && len(rest) > len(elem)+2 && rest[2+len(elem)] == '>' && string(rest[2:2+len(elem)]) == elem:
			s.pos += len(elem) + 3 // elem's end tag, as an encoder writes it
			s.depth--
			return nil
		case rest[1] == '?':
			end := s.name(s.pos + 2)
			n := bytes.Index(s.buf[end:], []byte("?>"))
			switch {
			case end == s.pos+2:
				return s.fail("missing or unsupported tag name")
			case n < 0:
				return s.fail("unterminated processing instruction")
			case string(s.buf[s.pos+2:end]) == "xml" && !s.declaration(s.buf[end:end+n]):
				return nil
			}
			s.pos = end + n + 2
		case rest[1] != '!':
			i := s.pos + 1
			start := rest[1] != '/'
			if !start {
				i++
			}
			end := s.name(i)
			name := s.buf[i:end]
			if end < len(s.buf) && s.buf[end] != '>' {
				end = len(s.buf) - len(bytes.TrimLeft(s.buf[end:], " \t\n\r"))
				if start && bytes.HasPrefix(s.buf[end:], []byte("/>")) {
					s.selfClosed = true
					end++
				}
			}
			switch {
			case len(name) == 0:
				return s.fail("missing or unsupported tag name")
			case end >= len(s.buf) || s.buf[end] != '>':
				return s.fail("malformed <%s> tag (attributes are not supported)", name)
			case !start && string(name) != elem:
				return s.fail("</%s> closes <%s>", name, strings.Clone(elem))
			case !start:
				s.depth--
			case s.depth >= maxDepth:
				return s.fail("elements nested deeper than %d", maxDepth)
			default:
				s.depth++
			}
			if s.pos = end + 1; !start {
				return nil
			}
			return name
		case bytes.HasPrefix(rest, []byte("<!--")):
			n := bytes.Index(rest[4:], []byte("--"))
			if n < 0 || 4+n+2 >= len(rest) || rest[4+n+2] != '>' {
				return s.fail(`unterminated comment or "--" inside one`)
			}
			s.pos += 4 + n + 3
		case bytes.HasPrefix(rest, []byte("<![CDATA[")):
			n := bytes.Index(rest[9:], []byte("]]>"))
			if n < 0 {
				return s.fail("unterminated CDATA section")
			}
			if collect(text, s.expand(rest[9:9+n], 0, true)); s.err != nil {
				return nil
			}
			s.pos += 9 + n + 3
		default:
			return s.fail("DOCTYPE and other <! directives are not supported")
		}
	}
}

// name returns the index after the element or target name starting at i,
// or i if there is none. Names are ASCII and carry no namespace prefix.
func (s *scanner) name(i int) int {
	b, j := s.buf, i
	for j < len(b) && class[b[j]]&nameRest != 0 {
		j++
	}
	if j == i || class[b[i]]&nameStart == 0 || j < len(b) && class[b[j]]&nameBad != 0 {
		return i
	}
	return j
}

// declaration checks the pseudo-attributes of an <?xml ...?> declaration:
// version 1.0 and, since there is no transcoder, UTF-8.
func (s *scanner) declaration(decl []byte) bool {
	if v := declParam(decl, "version="); len(v) > 0 && string(v) != "1.0" {
		s.fail("unsupported XML version %q", v)
	}
	if enc := declParam(decl, "encoding="); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
		s.fail("unsupported encoding %q", enc)
	}
	return s.err == nil
}

// declParam returns the quoted value after the first param (which ends in
// '=') that a quote follows, or nil.
func declParam(decl []byte, param string) []byte {
	for {
		k := bytes.Index(decl, []byte(param))
		if k < 0 || k+len(param) >= len(decl) {
			return nil
		}
		decl = decl[k+len(param):]
		if q := decl[0]; q == '\'' || q == '"' {
			if j := bytes.IndexByte(decl[1:], q); j >= 0 {
				return decl[1 : 1+j]
			}
			return nil
		}
		decl = decl[1:]
	}
}

// chars consumes the character data up to the next '<' or the end of the
// document, appending it to *text if text is not nil, and reports whether
// it is valid. A run of plain bytes is read once: one pass finds its end
// and checks it.
func (s *scanner) chars(text *[]byte) bool {
	b, i := s.buf[s.pos:], 0
	for i < len(b) && class[b[i]]&plainByte != 0 {
		i++
	}
	run := b[:i]
	if i < len(b) && b[i] != '<' {
		if n := bytes.IndexByte(b[i:], '<'); n >= 0 {
			b = b[:i+n]
		}
		run, i = s.expand(b, i, false), len(b)
	}
	collect(text, run)
	s.pos += i
	return s.err == nil
}

// collect appends a run of character data to *text, if text is not nil.
// A run is not copied: *text aliases the document until a second arrives.
func collect(text *[]byte, b []byte) {
	switch {
	case text == nil:
	case len(*text) == 0:
		*text = b[:len(b):len(b)]
	default:
		*text = append(*text, b...)
	}
}

// expand returns a checked copy of b, character data (raw: CDATA) plain up
// to b[i], with its entities expanded and its line ends folded.
func (s *scanner) expand(b []byte, i int, raw bool) []byte {
	out := append(make([]byte, 0, len(b)), b[:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case class[c]&plainByte != 0:
			out = append(out, c)
			i++
		case c == '&' && !raw:
			end := bytes.IndexByte(b[i:], ';')
			r, ok := entity(b[i+1 : i+max(end, 1)])
			if !ok {
				return s.fail("invalid entity %q", b[i:i+max(end+1, 1)])
			}
			out = utf8.AppendRune(out, r)
			i += end + 1
		case c == '\r': // CR and CRLF fold to LF, as an XML parser does
			out = append(out, '\n')
			if i++; i < len(b) && b[i] == '\n' {
				i++
			}
		case c == '>' && !raw && i >= 2 && b[i-1] == ']' && b[i-2] == ']':
			return s.fail(`"]]>" in character data`)
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 || !inCharRange(r) {
				return s.fail("invalid UTF-8 or a character XML does not allow: %#x", c)
			}
			out = append(out, b[i:i+n]...)
			i += n
		}
	}
	return out
}

var entities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// entity decodes what stands between '&' and ';': the name of a predefined
// entity or a decimal or hexadecimal character reference.
func entity(ref []byte) (rune, bool) {
	if r, ok := entities[string(ref)]; ok {
		return r, true
	}
	if len(ref) < 2 || ref[0] != '#' {
		return 0, false
	}
	base, digits := 10, ref[1:]
	if digits[0] == 'x' {
		base, digits = 16, digits[1:]
	}
	n, err := strconv.ParseUint(string(digits), base, 64)
	if r := rune(n); err == nil && n <= utf8.MaxRune {
		if !utf8.ValidRune(r) {
			r = utf8.RuneError // what encoding/xml makes of a surrogate
		}
		return r, inCharRange(r)
	}
	return 0, false
}

// inCharRange reports whether r is in XML 1.0's Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}

// skip consumes the rest of elem, or with elem "" of the document, checking
// only that it is well-formed.
func (s *scanner) skip(elem string) {
	for name := s.next(elem, nil); name != nil; name = s.next(elem, nil) {
		s.skip(string(name))
	}
}

// text collects the character data of the open leaf element elem.
func (s *scanner) text(elem []byte) (text []byte) {
	if name := s.next(string(elem), &text); name != nil {
		s.fail("unexpected <%s> in <%s>", name, elem)
	}
	return text
}

// The value readers below fill dst, zero when they are given it; a value it
// cannot take sets errRedo. An invalid dst stands for an interface{} one:
// the value is returned as its canonical tree, which costs no reflection.

// params consumes an open <params> element and returns how many <param>
// it holds and, dst being invalid, their values. Of several values in one
// <param> the last wins. Every value goes to dst, which takes one.
func (s *scanner) params(dst reflect.Value) (args []any, n int) {
	for name := s.next("params", nil); name != nil; name = s.next("params", nil) {
		if string(name) != "param" {
			s.fail("unexpected <%s> in <params>", name)
			break
		}
		val, seen := any(nil), false
		for name := s.next("param", nil); name != nil; name = s.next("param", nil) {
			switch {
			case string(name) != "value":
				s.fail("unexpected <%s> in <param>", name)
			case dst.IsValid() && !isAny(dst) && (seen || n > 0):
				s.err = errRedo
			default:
				val, seen = s.value(dst), true
			}
		}
		if !seen {
			s.fail("param without value")
		}
		if n++; !dst.IsValid() {
			args = append(args, val)
		}
	}
	return args, n
}

// value consumes an open <value> element: a typed element or, per the
// specification, bare text that is a string.
func (s *scanner) value(dst reflect.Value) (tree any) {
	if isAny(dst) {
		v := s.value(reflect.Value{})
		if dst.SetZero(); s.err == nil && v != nil {
			dst.Set(reflect.ValueOf(v))
		}
		return nil
	}
	var text []byte
	switch name := s.next("value", &text); {
	case name == nil:
		return s.scalar(nil, text, dst)
	case string(name) == "array" || string(name) == "struct":
		tree = s.container(name[0] == 'a', dst)
	default:
		tree = s.scalar(name, s.text(name), dst)
	}
	if name := s.next("value", nil); name != nil {
		s.fail("unexpected <%s> in <value>", name)
	}
	return tree
}

// scalar hands the text b of the type element name (nil: of a <value>
// without one) to dst as a value of that type.
func (s *scanner) scalar(name, b []byte, dst reflect.Value) any {
	var v scalar // "nil": the zero scalar
	t, ok, err := bytes.TrimSpace(b), true, error(nil)
	switch string(name) {
	case "", "string":
		v.kind, v.s = reflect.String, string(b)
	case "int", "i4", "i8":
		v.kind = reflect.Int
		v.n, err = strconv.ParseInt(string(t), 10, 64)
	case "double":
		// Finite only, as appendDouble writes: strconv also reads NaN and
		// Inf, which no caller can store or journal.
		v.kind = reflect.Float64
		v.f, err = strconv.ParseFloat(string(t), 64)
		ok = !math.IsNaN(v.f) && !math.IsInf(v.f, 0)
	case "boolean":
		v.kind, ok = reflect.Bool, string(t) == "0" || string(t) == "false"
		if string(t) == "1" || string(t) == "true" {
			v.n, ok = 1, true
		}
	case "dateTime.iso8601":
		v.kind, ok = reflect.Struct, false
		for _, layout := range [...]string{iso8601, time.RFC3339, "2006-01-02T15:04:05"} {
			if ts, err := time.Parse(layout, string(t)); err == nil {
				v.t, ok = ts.UTC(), true
				break
			}
		}
	case "base64":
		// The base64 decoder skips CR and LF itself.
		t = bytes.ReplaceAll(bytes.ReplaceAll(b, []byte(" "), nil), []byte("\t"), nil)
		v.kind = reflect.Slice
		v.b, err = base64.StdEncoding.AppendDecode([]byte{}, t)
	case "nil":
	default:
		s.fail("unknown value type <%s>", name)
	}
	switch {
	case s.err != nil:
	case err != nil || !ok:
		s.fail("bad %s %q", name, b[:min(len(b), 32)])
	case !dst.IsValid():
		return v.box()
	case v.into(dst) != nil:
		s.err = errRedo
	}
	return nil
}

// container consumes the body of an open <array> (array) or <struct>. A
// slice takes the elements and a struct the members one by one; any other
// destination takes the tree, under unmarshalValue.
func (s *scanner) container(array bool, dst reflect.Value) any {
	switch d := settle(dst); {
	case array && d.Kind() == reflect.Slice && d.Type().Elem().Kind() != reflect.Uint8:
		if s.array("array", nil, d); s.err == nil && d.IsNil() {
			d.Set(reflect.MakeSlice(d.Type(), 0, 0))
		}
		return nil
	case !array && d.Kind() == reflect.Struct && d.Type() != timeType:
		if plan := planOf(d.Type()); plan.direct {
			s.structure(d, plan)
			return nil
		}
	}
	var tree any
	if array {
		tree = s.array("array", []any{}, reflect.Value{})
	} else {
		tree = s.structure(reflect.Value{}, nil)
	}
	if s.err == nil && dst.IsValid() && unmarshalValue(tree, dst) != nil {
		s.err = errRedo
	}
	return tree
}

// array adds the values of an open <array> element, or of a <data> inside
// one, to the slice dst, which grows, or to out. <data> wrappers may be
// absent, repeated or nested.
func (s *scanner) array(elem string, out []any, dst reflect.Value) []any {
	for name := s.next(elem, nil); name != nil; name = s.next(elem, nil) {
		switch {
		case string(name) == "data":
			out = s.array("data", out, dst)
		case string(name) != "value":
			s.fail("unexpected <%s> in <array>", name)
		case dst.IsValid():
			n := dst.Len()
			dst.Grow(1)
			dst.SetLen(n + 1)
			s.value(dst.Index(n))
		default:
			out = append(out, s.value(dst))
		}
	}
	return out
}

// structure consumes an open <struct> into the struct dst by its direct
// plan, or without a plan into the map it returns; of members with one name
// the last wins. A member dst has no field for is decoded, and dropped.
func (s *scanner) structure(dst reflect.Value, plan *typePlan) map[string]any {
	var out map[string]any
	if plan == nil {
		out = map[string]any{}
	}
	seen, next := uint64(0), 0
	for name := s.next("struct", nil); name != nil; name = s.next("struct", nil) {
		if string(name) != "member" {
			s.fail("unexpected <%s> in <struct>", name)
			break
		}
		var key []byte
		val, haveName, haveVal := any(nil), false, false
		for name := s.next("member", nil); name != nil; name = s.next("member", nil) {
			switch string(name) {
			case "name":
				if haveName && plan != nil {
					s.err = errRedo
				}
				key, haveName = s.text(name), true
			case "value":
				var field reflect.Value
				if plan != nil {
					i := plan.find(key, next)
					if !haveName || haveVal || i >= 0 && seen&(1<<i) != 0 {
						s.err = errRedo
					} else if i >= 0 {
						seen, next = seen|1<<i, i+1
						field = dst.FieldByIndex(plan.members[i].index)
					}
				}
				val, haveVal = s.value(field), true
			default:
				s.fail("unexpected <%s> in <member>", name)
			}
		}
		if !(haveName && haveVal) {
			s.fail("incomplete struct member")
		}
		if out != nil {
			out[string(key)] = val
		}
	}
	return out
}

// fault consumes an open <fault> element: its first value is the fault,
// what follows only has to be well-formed.
func (s *scanner) fault() (f *Fault) {
	for name := s.next("fault", nil); name != nil; name = s.next("fault", nil) {
		switch {
		case f != nil:
			s.skip(string(name))
		case string(name) != "value":
			s.fail("unexpected <%s> in <fault>", name)
		default:
			v := s.value(reflect.Value{})
			m, ok := v.(map[string]any)
			if !ok {
				s.fail("fault value is %T, want struct", v)
			}
			f = &Fault{}
			f.Code, _ = m["faultCode"].(int)
			f.Message, _ = m["faultString"].(string)
		}
	}
	if f == nil {
		s.fail("empty fault")
	}
	return f
}
