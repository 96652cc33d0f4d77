package xmlrpc

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math"
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
// only allocation an encoding keeps is its result, made at its final size.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// encode returns a copy of the document build appends to a scratch buffer.
func encode(build func(buf []byte) ([]byte, error)) ([]byte, error) {
	scratch := encodeBufs.Get().(*[]byte)
	buf, err := build((*scratch)[:0])
	var out []byte
	if err == nil {
		out = bytes.Clone(buf)
	}
	if cap(buf) <= 64<<10 { // a huge document must not pin its buffer
		*scratch = buf
	}
	encodeBufs.Put(scratch)
	return out, err
}

// EncodeRequest serializes a method call with the given arguments.
func EncodeRequest(method string, args []any) ([]byte, error) {
	return encode(func(buf []byte) ([]byte, error) {
		buf = append(buf, xmlHeader+"<methodCall><methodName>"...)
		buf = appendEscaped(buf, method)
		buf = append(buf, "</methodName><params>"...)
		for _, a := range args {
			buf = append(buf, "<param>"...)
			var err error
			if buf, err = appendValue(buf, a); err != nil {
				return buf, fmt.Errorf("encoding request %q: %w", method, err)
			}
			buf = append(buf, "</param>"...)
		}
		return append(buf, "</params></methodCall>"...), nil
	})
}

// EncodeResponse serializes a successful method response carrying result.
func EncodeResponse(result any) ([]byte, error) {
	return encode(func(buf []byte) ([]byte, error) {
		buf = append(buf, xmlHeader+"<methodResponse><params><param>"...)
		buf, err := appendValue(buf, result)
		if err != nil {
			return buf, fmt.Errorf("encoding response: %w", err)
		}
		return append(buf, "</param></params></methodResponse>"...), nil
	})
}

// EncodeFault serializes a fault response.
func EncodeFault(f *Fault) []byte {
	// A fault struct has exactly two members; encode by hand so EncodeFault
	// cannot itself fail.
	buf := append([]byte(nil), xmlHeader+"<methodResponse><fault><value><struct>"+
		"<member><name>faultCode</name><value><int>"...)
	buf = strconv.AppendInt(buf, int64(f.Code), 10)
	buf = append(buf, "</int></value></member><member><name>faultString</name><value><string>"...)
	buf = appendEscaped(buf, f.Message)
	return append(buf, "</string></value></member></struct></value></fault></methodResponse>"...)
}

// appendValue appends <value>...</value> for a single Go value.
func appendValue(buf []byte, v any) ([]byte, error) {
	buf = append(buf, "<value>"...)
	buf, err := appendInner(buf, v)
	return append(buf, "</value>"...), err
}

func appendInner(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, "<nil/>"...), nil
	case bool:
		if x {
			return append(buf, "<boolean>1</boolean>"...), nil
		}
		return append(buf, "<boolean>0</boolean>"...), nil
	case int:
		return appendInt(buf, int64(x))
	case int8:
		return appendInt(buf, int64(x))
	case int16:
		return appendInt(buf, int64(x))
	case int32:
		return appendInt(buf, int64(x))
	case int64:
		return appendInt(buf, x)
	case uint:
		return appendInt(buf, int64(x))
	case uint8:
		return appendInt(buf, int64(x))
	case uint16:
		return appendInt(buf, int64(x))
	case uint32:
		return appendInt(buf, int64(x))
	case float32:
		return appendInner(buf, float64(x))
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return buf, fmt.Errorf("%w: non-finite double %v", ErrUnsupportedType, x)
		}
		buf = append(buf, "<double>"...)
		buf = strconv.AppendFloat(buf, x, 'g', 17, 64)
		return append(buf, "</double>"...), nil
	case string:
		buf = append(buf, "<string>"...)
		buf = appendEscaped(buf, x)
		return append(buf, "</string>"...), nil
	case time.Time:
		buf = append(buf, "<dateTime.iso8601>"...)
		buf = x.UTC().AppendFormat(buf, iso8601)
		return append(buf, "</dateTime.iso8601>"...), nil
	case []byte:
		buf = append(buf, "<base64>"...)
		buf = base64.StdEncoding.AppendEncode(buf, x)
		return append(buf, "</base64>"...), nil
	case []any:
		buf = append(buf, "<array><data>"...)
		for _, e := range x {
			var err error
			if buf, err = appendValue(buf, e); err != nil {
				return buf, err
			}
		}
		return append(buf, "</data></array>"...), nil
	case []string:
		arr := make([]any, len(x))
		for i, s := range x {
			arr[i] = s
		}
		return appendInner(buf, arr)
	case []int:
		arr := make([]any, len(x))
		for i, n := range x {
			arr[i] = n
		}
		return appendInner(buf, arr)
	case []float64:
		arr := make([]any, len(x))
		for i, f := range x {
			arr[i] = f
		}
		return appendInner(buf, arr)
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
			buf = append(buf, "<member><name>"...)
			buf = appendEscaped(buf, k)
			buf = append(buf, "</name>"...)
			var err error
			if buf, err = appendValue(buf, x[k]); err != nil {
				return buf, err
			}
			buf = append(buf, "</member>"...)
		}
		return append(buf, "</struct>"...), nil
	case map[string]string:
		m := make(map[string]any, len(x))
		for k, s := range x {
			m[k] = s
		}
		return appendInner(buf, m)
	default:
		return buf, fmt.Errorf("%w: %T", ErrUnsupportedType, v)
	}
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
// the reference survives the round trip. Most strings are ASCII with
// nothing to escape and are appended whole.
func appendEscaped(buf []byte, s string) []byte {
	i := 0
	for i < len(s) && s[i] < utf8.RuneSelf && s[i] != '&' && s[i] != '<' && s[i] != '>' && s[i] != '\'' && s[i] != '"' && s[i] != '\r' {
		i++
	}
	buf = append(buf, s[:i]...)
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
			buf = utf8.AppendRune(buf, r)
		}
	}
	return buf
}
