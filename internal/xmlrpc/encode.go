package xmlrpc

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// iso8601 is the dateTime layout mandated by the XML-RPC specification.
// Note the absence of separators and timezone, per the original spec.
const iso8601 = "20060102T15:04:05"

const xmlHeader = `<?xml version="1.0" encoding="UTF-8"?>`

// encodeBufs recycles the scratch buffers documents are built in, so the
// only allocation an encoding keeps is its result, made at its final size,
// and a body read off the wire allocates nothing once it is decoded.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// encode builds a document in a scratch buffer, encoding it or reading it
// off the wire, and hands it to use, which keeps nothing of it, before the
// buffer goes back to the pool.
func encode(build func(buf []byte) ([]byte, error), use func(doc []byte)) error {
	scratch := encodeBufs.Get().(*[]byte)
	buf, err := build((*scratch)[:0])
	if err == nil {
		use(buf)
	}
	if cap(buf) <= 64<<10 { // a huge document must not pin its buffer
		*scratch = buf
	}
	encodeBufs.Put(scratch)
	return err
}

// EncodeRequest serializes a method call with the given arguments.
func EncodeRequest(method string, args []any) (out []byte, err error) {
	err = encode(func(buf []byte) ([]byte, error) {
		buf, err := appendEscaped(append(buf, xmlHeader+"<methodCall><methodName>"...), method)
		if err != nil {
			return buf, fmt.Errorf("encoding method name: %w", err)
		}
		buf = append(buf, "</methodName><params>"...)
		for _, a := range args {
			buf = append(buf, "<param>"...)
			if buf, err = appendValue(buf, a); err != nil {
				return buf, fmt.Errorf("encoding request %q: %w", method, err)
			}
			buf = append(buf, "</param>"...)
		}
		return append(buf, "</params></methodCall>"...), nil
	}, func(doc []byte) { out = bytes.Clone(doc) })
	return out, err
}

// EncodeResponse serializes a successful method response carrying result.
func EncodeResponse(result any) (out []byte, err error) {
	err = encodeResponse(result, func(doc []byte) { out = bytes.Clone(doc) })
	return out, err
}

func encodeResponse(result any, use func(doc []byte)) error {
	return encode(func(buf []byte) ([]byte, error) {
		buf = append(buf, xmlHeader+"<methodResponse><params><param>"...)
		buf, err := appendValue(buf, result)
		if err != nil {
			return buf, fmt.Errorf("encoding response: %w", err)
		}
		return append(buf, "</param></params></methodResponse>"...), nil
	}, use)
}

// EncodeFault serializes a fault response.
func EncodeFault(f *Fault) []byte {
	// A fault struct has exactly two members; encode by hand so EncodeFault
	// cannot itself fail (a rune XML cannot carry becomes U+FFFD).
	buf := append([]byte(nil), xmlHeader+"<methodResponse><fault><value><struct>"+
		"<member><name>faultCode</name><value><int>"...)
	buf = strconv.AppendInt(buf, int64(f.Code), 10)
	buf = append(buf, "</int></value></member><member><name>faultString</name><value><string>"...)
	buf, _ = appendEscaped(buf, f.Message)
	return append(buf, "</string></value></member></struct></value></fault></methodResponse>"...)
}

// appendValue appends <value>...</value> for a single Go value.
func appendValue(buf []byte, v any) ([]byte, error) {
	buf = append(buf, "<value>"...)
	buf, err := appendInner(buf, v)
	return append(buf, "</value>"...), err
}

// appendInner appends v's typed element. The canonical types the decoder
// produces are matched by a type switch, which costs no reflection;
// everything else is appendReflect's.
func appendInner(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, "<nil/>"...), nil
	case bool:
		return appendBool(buf, x), nil
	case int:
		return appendInt(buf, int64(x))
	case float64:
		return appendDouble(buf, x)
	case string:
		return appendString(buf, x)
	case time.Time:
		return appendTime(buf, x), nil
	case []byte:
		return appendBase64(buf, x), nil
	case []any:
		buf = append(buf, "<array><data>"...)
		for _, e := range x {
			var err error
			if buf, err = appendValue(buf, e); err != nil {
				return buf, err
			}
		}
		return append(buf, "</data></array>"...), nil
	case map[string]any:
		buf = append(buf, "<struct>"...)
		// Deterministic member order keeps golden tests and hashes stable.
		var few [32]string
		keys := few[:0]
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var err error
			if buf, err = appendMemberOpen(buf, k); err == nil {
				buf, err = appendInner(buf, x[k])
			}
			if err != nil {
				return buf, err
			}
			buf = append(buf, "</value></member>"...)
		}
		return append(buf, "</struct>"...), nil
	}
	return appendReflect(buf, reflect.ValueOf(v))
}

// appendReflect appends the typed element of any other encodable value:
// sized numbers, pointers, slices, arrays, string-keyed maps and structs
// (their members as the xmlrpc tags say; see marshal.go). It writes what
// appendInner writes for Marshal's tree of the same value, without
// building the tree: members come from the type's plan already in wire
// order, their <name> rendered when the plan was made.
func appendReflect(buf []byte, rv reflect.Value) ([]byte, error) {
	for rv.Kind() == reflect.Interface || rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return append(buf, "<nil/>"...), nil
		}
		rv = rv.Elem()
	}
	if rv.Type() == timeType {
		if rv.CanAddr() { // a slice element: Interface would copy it to the heap
			return appendTime(buf, *timeIn(rv)), nil
		}
		return appendTime(buf, rv.Interface().(time.Time)), nil
	}
	var err error
	switch rv.Kind() {
	case reflect.Bool:
		return appendBool(buf, rv.Bool()), nil
	case reflect.String:
		return appendString(buf, rv.String())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return appendInt(buf, rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if u := rv.Uint(); u <= math.MaxInt32 {
			return appendInt(buf, int64(u))
		}
		return buf, fmt.Errorf("%w: unsigned %d overflows XML-RPC i4", ErrUnsupportedType, rv.Uint())
	case reflect.Float32, reflect.Float64:
		return appendDouble(buf, rv.Float())
	case reflect.Slice, reflect.Array:
		if rv.Kind() == reflect.Slice && rv.Type().Elem().Kind() == reflect.Uint8 {
			return appendBase64(buf, rv.Bytes()), nil
		}
		buf = append(buf, "<array><data>"...)
		for i, n := 0, rv.Len(); i < n; i++ {
			buf = append(buf, "<value>"...)
			if buf, err = appendReflect(buf, rv.Index(i)); err != nil {
				return buf, err
			}
			buf = append(buf, "</value>"...)
		}
		return append(buf, "</data></array>"...), nil
	case reflect.Map:
		if rv.Type().Key().Kind() != reflect.String {
			return buf, fmt.Errorf("%w: map key %s (want string)", ErrUnsupportedType, rv.Type().Key())
		}
		keys := rv.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		buf = append(buf, "<struct>"...)
		for _, k := range keys {
			if buf, err = appendMemberOpen(buf, k.String()); err == nil {
				buf, err = appendReflect(buf, rv.MapIndex(k))
			}
			if err != nil {
				return buf, err
			}
			buf = append(buf, "</value></member>"...)
		}
		return append(buf, "</struct>"...), nil
	case reflect.Struct:
		buf = append(buf, "<struct>"...)
		members := planOf(rv.Type()).members
		group := 0 // where the members of the current wire name start
		for i := range members {
			m := &members[i]
			if !m.dup {
				group = len(buf)
			}
			fv := rv.FieldByIndex(m.index)
			if m.omitempty && fv.IsZero() {
				continue
			}
			// Of fields sharing a wire name the last one present wins.
			buf = append(buf[:group], m.open...)
			if buf, err = appendReflect(buf, fv); err != nil {
				return buf, fmt.Errorf("field %s: %w", m.goName, err)
			}
			buf = append(buf, "</value></member>"...)
		}
		return append(buf, "</struct>"...), nil
	}
	return buf, fmt.Errorf("%w: %s", ErrUnsupportedType, rv.Type())
}

// appendMemberOpen appends a struct member up to where its value's typed
// element goes.
func appendMemberOpen(buf []byte, name string) ([]byte, error) {
	buf, err := appendEscaped(append(buf, "<member><name>"...), name)
	return append(buf, "</name><value>"...), err
}

func appendBool(buf []byte, x bool) []byte {
	if x {
		return append(buf, "<boolean>1</boolean>"...)
	}
	return append(buf, "<boolean>0</boolean>"...)
}

func appendDouble(buf []byte, x float64) ([]byte, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return buf, fmt.Errorf("%w: non-finite double %v", ErrUnsupportedType, x)
	}
	buf = append(buf, "<double>"...)
	buf = strconv.AppendFloat(buf, x, 'g', 17, 64)
	return append(buf, "</double>"...), nil
}

func appendString(buf []byte, x string) ([]byte, error) {
	buf, err := appendEscaped(append(buf, "<string>"...), x)
	return append(buf, "</string>"...), err
}

func appendTime(buf []byte, x time.Time) []byte {
	buf = append(buf, "<dateTime.iso8601>"...)
	buf = x.UTC().AppendFormat(buf, iso8601)
	return append(buf, "</dateTime.iso8601>"...)
}

func appendBase64(buf []byte, x []byte) []byte {
	buf = append(buf, "<base64>"...)
	buf = base64.StdEncoding.AppendEncode(buf, x)
	return append(buf, "</base64>"...)
}

func appendInt(buf []byte, x int64) ([]byte, error) {
	if x > math.MaxInt32 || x < math.MinInt32 {
		return buf, fmt.Errorf("%w: integer %d overflows XML-RPC i4", ErrUnsupportedType, x)
	}
	buf = append(buf, "<int>"...)
	buf = strconv.AppendInt(buf, x, 10)
	return append(buf, "</int>"...), nil
}

// appendEscaped appends s with the five XML predefined entities escaped.
// Carriage returns become character references: a literal CR in content
// would be folded to LF by the parser's line-ending normalization, while
// the reference survives the round trip. A rune outside XML 1.0's Char
// production, which no document can carry (a C0 control but TAB, LF and
// CR, U+FFFE, U+FFFF), is written as U+FFFD and reported as the error.
// Most strings are ASCII with nothing to escape and are appended whole.
func appendEscaped(buf []byte, s string) ([]byte, error) {
	i := 0
	for i < len(s) && class[s[i]]&plainByte != 0 && s[i] != '\'' && s[i] != '"' {
		i++
	}
	buf = append(buf, s[:i]...)
	var err error
	for _, r := range s[i:] {
		switch r {
		case '&':
			buf = append(buf, "&amp;"...)
		case '<':
			buf = append(buf, "&lt;"...)
		case '>':
			buf = append(buf, "&gt;"...)
		case '\'':
			buf = append(buf, "&apos;"...)
		case '"':
			buf = append(buf, "&quot;"...)
		case '\r':
			buf = append(buf, "&#13;"...)
		default:
			if !inCharRange(r) {
				err, r = fmt.Errorf("%w: string holding %U, which XML cannot carry", ErrUnsupportedType, r), utf8.RuneError
			}
			buf = utf8.AppendRune(buf, r)
		}
	}
	return buf, err
}
