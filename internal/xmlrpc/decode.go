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
	body, err := readBody(r, -1)
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
	body, err := readBody(r, -1)
	if err != nil {
		return fmt.Errorf("xmlrpc: reading methodResponse: %w", err)
	}
	return decodeResponse(body, out)
}

// readBody reads a message body of at most MaxRequestBytes into a buffer
// of its declared size (negative: unknown).
func readBody(r io.Reader, size int64) ([]byte, error) {
	if size < 0 || size > MaxRequestBytes {
		size = 1024
	}
	buf := make([]byte, 0, size+1) // +1: the Read that reports EOF needs room
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > MaxRequestBytes:
			return nil, errTooLarge
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return nil, err
		case len(buf) == cap(buf):
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

func decodeRequest(body []byte) (*Request, error) {
	s := scanner{buf: body}
	req := &Request{}
	err := s.document("methodCall", func(name []byte) (err error) {
		switch string(name) {
		case "methodName":
			var b []byte
			b, err = s.text("methodName")
			req.Method = string(bytes.TrimSpace(b))
		case "params":
			req.Args, err = s.params(reflect.Value{})
		default:
			err = s.skip(string(name))
		}
		return err
	})
	if err == nil && req.Method == "" {
		err = errors.New("xmlrpc: methodCall missing methodName")
	}
	if err != nil {
		return nil, err
	}
	return req, nil
}

// errRedo is the direct walk into a typed destination giving up on a
// document that is well-formed so far but whose value the destination
// cannot hold or whose shape only a tree decides (a member repeated, named
// twice or valued before its name; a second value in a <param>):
// decodeResponse decodes it into a tree and leaves the verdict to
// unmarshalValue, so such documents mean what they always did.
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

// decodeResponseInto decodes the result into dst or, dst being invalid,
// returns it as a tree.
func scanResponse(body []byte, dst reflect.Value) (any, error) {
	s := scanner{buf: body}
	var result any
	var fault *Fault
	answered := false
	err := s.document("methodResponse", func(name []byte) (err error) {
		// The first params or fault element is the answer; what follows
		// it only has to be well-formed.
		switch {
		case answered || string(name) != "params" && string(name) != "fault":
			return s.skip(string(name))
		case string(name) == "fault":
			fault, err = s.fault()
		default:
			var args []any
			if args, err = s.params(dst); err == nil && len(args) != 1 {
				err = fmt.Errorf("xmlrpc: response carries %d params, want 1", len(args))
			} else if err == nil {
				result = args[0]
			}
		}
		answered = true
		return err
	})
	switch {
	case err != nil:
		return nil, err
	case !answered:
		return nil, errors.New("xmlrpc: empty methodResponse")
	case fault != nil:
		return nil, fault
	}
	return result, nil
}

// scanner walks one XML-RPC document held in memory. It knows the subset
// of XML the package comment lists and nothing else.
type scanner struct {
	buf []byte
	pos int
	// selfClosed is set after the start half of <x/> was returned: the
	// next token is x's end tag, as if the document had said <x></x>.
	selfClosed bool
	// depth counts the open elements; the grammar walk recurses once per
	// level, so bounding it bounds the stack a hostile document can take.
	depth int
}

// maxDepth is the deepest element nesting accepted; the deepest pkg/gae
// wire type nests 20 elements.
const maxDepth = 256

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("xmlrpc: offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// token advances to the next element tag and returns its name and whether
// it is a start tag. elem is the innermost open element ("" outside the
// root): its end tag is the only one accepted, and only outside the root
// may the input end, which reads as an end tag. Character data and CDATA
// sections on the way are validated and, when text is not nil, collected
// into *text; comments and processing instructions are skipped.
func (s *scanner) token(elem string, text *[]byte) (name []byte, start bool, err error) {
	if s.selfClosed {
		s.selfClosed = false
		s.depth--
		return nil, false, nil
	}
	for {
		if s.pos == len(s.buf) || s.buf[s.pos] != '<' {
			n := bytes.IndexByte(s.buf[s.pos:], '<')
			if n < 0 {
				n = len(s.buf) - s.pos
			}
			if err := s.chars(s.buf[s.pos:s.pos+n], false, text); err != nil {
				return nil, false, err
			}
			s.pos += n
		}
		rest := s.buf[s.pos:]
		switch {
		case len(rest) == 0 && elem == "":
			return nil, false, nil
		case len(rest) < 2:
			return nil, false, s.errorf("unexpected end of document inside <%s>", elem)
		case rest[1] == '?':
			end, err := s.name(s.pos + 2)
			if err != nil {
				return nil, false, err
			}
			n := bytes.Index(s.buf[end:], []byte("?>"))
			if n < 0 {
				return nil, false, s.errorf("unterminated processing instruction")
			}
			if string(s.buf[s.pos+2:end]) == "xml" {
				if err := s.declaration(s.buf[end : end+n]); err != nil {
					return nil, false, err
				}
			}
			s.pos = end + n + 2
		case rest[1] != '!':
			i := s.pos + 1
			start = rest[1] != '/'
			if !start {
				i++
			}
			end, err := s.name(i)
			if err != nil {
				return nil, false, err
			}
			name, end = s.buf[i:end], s.space(end)
			if start && bytes.HasPrefix(s.buf[end:], []byte("/>")) {
				s.selfClosed = true
				end++
			}
			if end >= len(s.buf) || s.buf[end] != '>' {
				return nil, false, s.errorf("malformed <%s> tag (attributes are not supported)", name)
			}
			if !start && string(name) != elem {
				return nil, false, s.errorf("</%s> closes <%s>", name, elem)
			}
			if !start {
				s.depth--
			} else if s.depth++; s.depth > maxDepth {
				return nil, false, s.errorf("elements nested deeper than %d", maxDepth)
			}
			s.pos = end + 1
			return name, start, nil
		case bytes.HasPrefix(rest, []byte("<!--")):
			n := bytes.Index(rest[4:], []byte("--"))
			if n < 0 || 4+n+2 >= len(rest) || rest[4+n+2] != '>' {
				return nil, false, s.errorf(`unterminated comment or "--" inside one`)
			}
			s.pos += 4 + n + 3
		case bytes.HasPrefix(rest, []byte("<![CDATA[")):
			n := bytes.Index(rest[9:], []byte("]]>"))
			if n < 0 {
				return nil, false, s.errorf("unterminated CDATA section")
			}
			if err := s.chars(rest[9:9+n], true, text); err != nil {
				return nil, false, err
			}
			s.pos += 9 + n + 3
		default:
			return nil, false, s.errorf("DOCTYPE and other <! directives are not supported")
		}
	}
}

// name scans the element or target name starting at i and returns the
// index after it. Names are ASCII and carry no namespace prefix.
func (s *scanner) name(i int) (int, error) {
	j := i
	for j < len(s.buf) {
		c := s.buf[j]
		if c|0x20 >= 'a' && c|0x20 <= 'z' || c == '_' || j > i && (c >= '0' && c <= '9' || c == '.' || c == '-') {
			j++
			continue
		}
		if c == ':' || c >= utf8.RuneSelf {
			j = i // prefixed and non-ASCII names are not supported
		}
		break
	}
	if j == i {
		return 0, s.errorf("missing or unsupported tag name")
	}
	return j, nil
}

// space returns the index of the first non-space byte at or after i.
func (s *scanner) space(i int) int {
	for i < len(s.buf) && (s.buf[i] == ' ' || s.buf[i] == '\t' || s.buf[i] == '\n' || s.buf[i] == '\r') {
		i++
	}
	return i
}

// declaration checks the pseudo-attributes of an <?xml ...?> declaration:
// version 1.0 and, since there is no transcoder, UTF-8.
func (s *scanner) declaration(decl []byte) error {
	if v := declParam(decl, "version="); len(v) > 0 && string(v) != "1.0" {
		return s.errorf("unsupported XML version %q", v)
	}
	if enc := declParam(decl, "encoding="); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
		return s.errorf("unsupported encoding %q", enc)
	}
	return nil
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

// chars validates one run of character data (raw: the inside of a CDATA
// section) and, when text is not nil, appends it to *text with entities
// expanded and line ends folded. A run that needs no rewriting is not
// copied: *text aliases the document until a second run arrives.
func (s *scanner) chars(b []byte, raw bool, text *[]byte) error {
	i := 0
	for i < len(b) && (b[i] >= 0x20 && b[i] < utf8.RuneSelf && b[i] != '&' && b[i] != '>' || b[i] == '\n' || b[i] == '\t') {
		i++
	}
	if i < len(b) {
		var err error
		if b, err = s.expand(b, i, raw); err != nil {
			return err
		}
	}
	if text != nil {
		if len(*text) == 0 {
			*text = b[:len(b):len(b)]
		} else {
			*text = append(*text, b...)
		}
	}
	return nil
}

// expand is the slow path of chars, entered at the first byte b[i] that
// is not plain ASCII text: it returns a rewritten copy of b.
func (s *scanner) expand(b []byte, i int, raw bool) ([]byte, error) {
	out := append(make([]byte, 0, len(b)), b[:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '&' && !raw:
			end := bytes.IndexByte(b[i:], ';')
			r, ok := entity(b[i+1 : i+max(end, 1)])
			if !ok {
				return nil, s.errorf("invalid entity %q", b[i:i+max(end+1, 1)])
			}
			out = utf8.AppendRune(out, r)
			i += end + 1
		case c == '\r': // CR and CRLF fold to LF, as an XML parser does
			out = append(out, '\n')
			if i++; i < len(b) && b[i] == '\n' {
				i++
			}
		case c == '>' && !raw && i >= 2 && b[i-1] == ']' && b[i-2] == ']':
			return nil, s.errorf(`"]]>" in character data`)
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 || !inCharRange(r) {
				return nil, s.errorf("invalid UTF-8 or a character XML does not allow: %#x", c)
			}
			out = append(out, b[i:i+n]...)
			i += n
		}
	}
	return out, nil
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
	if err != nil || n > utf8.MaxRune {
		return 0, false
	}
	r := rune(n)
	if !utf8.ValidRune(r) {
		r = utf8.RuneError // what encoding/xml makes of a surrogate
	}
	return r, inCharRange(r)
}

// inCharRange reports whether r is in XML 1.0's Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}

// document walks the children of the root element, which must be <root>,
// and requires whatever follows the root to be well-formed.
func (s *scanner) document(root string, child func(name []byte) error) error {
	name, start, err := s.token("", nil)
	if err == nil && (!start || string(name) != root) {
		err = s.errorf("root element is not <%s>", root)
	}
	if err == nil {
		err = s.each(root, child)
	}
	if err == nil {
		err = s.skip("")
	}
	return err
}

// each calls child for every child of the open element elem, through
// elem's end tag (with elem "", through the end of the input).
func (s *scanner) each(elem string, child func(name []byte) error) error {
	for {
		name, start, err := s.token(elem, nil)
		if err != nil || !start {
			return err
		}
		if err := child(name); err != nil {
			return err
		}
	}
}

// skip consumes the rest of elem, checking only that it is well-formed.
func (s *scanner) skip(elem string) error {
	return s.each(elem, func(name []byte) error { return s.skip(string(name)) })
}

func (s *scanner) unexpected(name []byte, elem string) error {
	return s.errorf("unexpected <%s> in <%s>", name, elem)
}

// text collects the character data of the leaf element elem.
func (s *scanner) text(elem string) ([]byte, error) {
	var text []byte
	name, start, err := s.token(elem, &text)
	if err == nil && start {
		err = s.unexpected(name, elem)
	}
	return text, err
}

// The value builders below take the destination dst a value goes to. An
// invalid dst stands for an interface{} one: the value is returned as its
// canonical tree (int, bool, string, float64, time.Time, []byte, []any,
// map[string]any), which costs no reflection. A valid dst is zero when a
// builder is given it.

// params consumes an open <params> element. Of several values in one
// <param> the last wins. Every value goes to dst, which takes one.
func (s *scanner) params(dst reflect.Value) (args []any, err error) {
	err = s.each("params", func(name []byte) error {
		if string(name) != "param" {
			return s.unexpected(name, "params")
		}
		var val any
		seen := false
		err := s.each("param", func(name []byte) (err error) {
			if string(name) != "value" {
				return s.unexpected(name, "param")
			}
			if dst.IsValid() && !isAny(dst) && (seen || len(args) > 0) {
				return errRedo
			}
			val, err = s.value(dst)
			seen = true
			return err
		})
		if err == nil && !seen {
			err = s.errorf("param without value")
		}
		args = append(args, val)
		return err
	})
	return args, err
}

// value consumes an open <value> element: a typed element or, per the
// specification, bare text that is a string.
func (s *scanner) value(dst reflect.Value) (any, error) {
	if isAny(dst) {
		v, err := s.value(reflect.Value{})
		if dst.SetZero(); err == nil && v != nil {
			dst.Set(reflect.ValueOf(v))
		}
		return nil, err
	}
	var text []byte
	name, start, err := s.token("value", &text)
	if err != nil {
		return nil, err
	}
	if !start {
		return s.deliver(&scalar{kind: reflect.String, s: string(text)}, dst)
	}
	v, err := s.typed(name, dst)
	if err != nil {
		return nil, err
	}
	if name, start, err = s.token("value", nil); err == nil && start {
		err = s.unexpected(name, "value")
	}
	return v, err
}

// deliver hands a scalar to its destination.
func (s *scanner) deliver(v *scalar, dst reflect.Value) (any, error) {
	if !dst.IsValid() {
		return v.box(), nil
	}
	if v.into(dst) != nil {
		return nil, errRedo
	}
	return nil, nil
}

var typeNames = [...]string{"string", "int", "double", "struct", "array", "boolean",
	"dateTime.iso8601", "i4", "i8", "base64", "nil"}

// typed decodes the body of an open type element such as <int> or <array>.
func (s *scanner) typed(name []byte, dst reflect.Value) (any, error) {
	typ := ""
	for _, n := range typeNames { // most frequent first
		if string(name) == n {
			typ = n // the constant, so no string is allocated per value
			break
		}
	}
	switch typ {
	case "":
		return nil, s.errorf("unknown value type <%s>", name)
	case "array", "struct":
		// A slice takes the elements and a struct the members one by one;
		// any other destination takes the tree, under unmarshalValue.
		switch d := settle(dst); {
		case typ == "array" && d.Kind() == reflect.Slice && d.Type().Elem().Kind() != reflect.Uint8:
			_, err := s.array("array", nil, d)
			if err == nil && d.IsNil() {
				d.Set(reflect.MakeSlice(d.Type(), 0, 0))
			}
			return nil, err
		case typ == "struct" && d.Kind() == reflect.Struct && d.Type() != timeType:
			if plan := planOf(d.Type()); plan.direct {
				return s.structure(d, plan)
			}
		}
		var tree any
		var err error
		if typ == "array" {
			tree, err = s.array("array", []any{}, reflect.Value{})
		} else {
			tree, err = s.structure(reflect.Value{}, nil)
		}
		if err == nil && dst.IsValid() && unmarshalValue(tree, dst) != nil {
			err = errRedo
		}
		return tree, err
	}
	b, err := s.text(typ)
	if err != nil {
		return nil, err
	}
	t := bytes.TrimSpace(b)
	var v scalar // "nil": the zero scalar
	ok := true
	switch typ {
	case "string":
		v.kind, v.s = reflect.String, string(b)
	case "int", "i4", "i8":
		v.kind = reflect.Int
		v.n, err = strconv.ParseInt(string(t), 10, 64)
		ok = err == nil
	case "boolean":
		v.kind = reflect.Bool
		switch string(t) {
		case "1", "true":
			v.n = 1
		case "0", "false":
		default:
			ok = false
		}
	case "double":
		// Finite only, as appendDouble writes: strconv also reads NaN and
		// Inf, which no caller can store or journal.
		v.kind = reflect.Float64
		v.f, err = strconv.ParseFloat(string(t), 64)
		ok = err == nil && !math.IsNaN(v.f) && !math.IsInf(v.f, 0)
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
		v.b = make([]byte, base64.StdEncoding.DecodedLen(len(t)))
		n, err := base64.StdEncoding.Decode(v.b, t)
		v.b, ok = v.b[:n], err == nil
	}
	if !ok {
		return nil, s.errorf("bad %s %q", typ, b[:min(len(b), 32)])
	}
	return s.deliver(&v, dst)
}

// array adds the values of an open <array> element, or of a <data> inside
// one, to the slice dst, which grows, or to out. <data> wrappers may be
// absent, repeated or nested.
func (s *scanner) array(elem string, out []any, dst reflect.Value) ([]any, error) {
	err := s.each(elem, func(name []byte) (err error) {
		switch {
		case string(name) == "data":
			out, err = s.array("data", out, dst)
		case string(name) != "value":
			err = s.unexpected(name, "array")
		case dst.IsValid():
			n := dst.Len()
			dst.Grow(1)
			dst.SetLen(n + 1)
			_, err = s.value(dst.Index(n))
		default:
			var v any
			v, err = s.value(dst)
			out = append(out, v)
		}
		return err
	})
	return out, err
}

// structure consumes an open <struct> element into the struct dst by its
// plan, a direct one, or without a plan into the map it returns; of members
// with one name the last wins. A member dst has no field for is decoded all
// the same, and dropped.
func (s *scanner) structure(dst reflect.Value, plan *typePlan) (map[string]any, error) {
	var out map[string]any
	if plan == nil {
		out = map[string]any{}
	}
	seen, next := uint64(0), 0
	err := s.each("struct", func(name []byte) error {
		if string(name) != "member" {
			return s.unexpected(name, "struct")
		}
		var key []byte
		var val any
		haveName, haveVal := false, false
		err := s.each("member", func(name []byte) (err error) {
			switch string(name) {
			case "name":
				if haveName && plan != nil {
					return errRedo
				}
				key, err = s.text("name")
				haveName = true
			case "value":
				var field reflect.Value
				if plan != nil {
					if !haveName || haveVal {
						return errRedo
					}
					if i := plan.find(key, next); i >= 0 {
						if seen&(1<<i) != 0 {
							return errRedo
						}
						seen, next = seen|1<<i, i+1
						field = dst.FieldByIndex(plan.members[i].index)
					}
				}
				val, err = s.value(field)
				haveVal = true
			default:
				err = s.unexpected(name, "member")
			}
			return err
		})
		if err == nil && !(haveName && haveVal) {
			err = s.errorf("incomplete struct member")
		}
		if out != nil {
			out[string(key)] = val
		}
		return err
	})
	return out, err
}

// fault consumes an open <fault> element: its first value is the fault,
// what follows only has to be well-formed.
func (s *scanner) fault() (f *Fault, err error) {
	err = s.each("fault", func(name []byte) error {
		if f != nil {
			return s.skip(string(name))
		}
		if string(name) != "value" {
			return s.unexpected(name, "fault")
		}
		v, err := s.value(reflect.Value{})
		m, ok := v.(map[string]any)
		if err == nil && !ok {
			err = s.errorf("fault value is %T, want struct", v)
		}
		f = &Fault{}
		f.Code, _ = m["faultCode"].(int)
		f.Message, _ = m["faultString"].(string)
		return err
	})
	if err == nil && f == nil {
		err = s.errorf("empty fault")
	}
	return f, err
}
