package xmlrpc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"
)

// The literal documents the decode tests feed the decoder, named so that
// FuzzDecodeAgainstEncodingXML can seed its corpus with every one of them.
const (
	docNoParams          = `<?xml version="1.0"?><methodCall><methodName>ping</methodName></methodCall>`
	docMissingMethodName = `<methodCall><params></params></methodCall>`
	docUntypedValue      = `<methodCall><methodName>m</methodName><params><param><value>plain</value></param></params></methodCall>`
	docI4AndI8           = `<methodCall><methodName>m</methodName><params>` +
		`<param><value><i4>7</i4></value></param>` +
		`<param><value><i8>1099511627776</i8></value></param>` +
		`</params></methodCall>`
	docBooleanWords = `<methodCall><methodName>m</methodName><params>` +
		`<param><value><boolean>true</boolean></value></param>` +
		`<param><value><boolean>0</boolean></value></param>` +
		`</params></methodCall>`
	docRFC3339Date = `<methodCall><methodName>m</methodName><params>` +
		`<param><value><dateTime.iso8601>2005-06-01T10:00:00Z</dateTime.iso8601></value></param>` +
		`</params></methodCall>`
	docResponseEmpty          = `<methodResponse></methodResponse>`
	docResponseMultipleParams = `<methodResponse><params>` +
		`<param><value><int>1</int></value></param>` +
		`<param><value><int>2</int></value></param>` +
		`</params></methodResponse>`
)

var docsMalformed = []string{
	``,
	`<notxmlrpc/>`,
	`<methodCall><methodName>m`,
	`<methodCall><methodName>m</methodName><params><param></param></params></methodCall>`,
	`<methodCall><methodName>m</methodName><params><param><value><int>NaN</int></value></param></params></methodCall>`,
	`<methodCall><methodName>m</methodName><params><param><value><boolean>2</boolean></value></param></params></methodCall>`,
	`<methodCall><methodName>m</methodName><params><param><value><unknowntype>1</unknowntype></value></param></params></methodCall>`,
	`<methodCall><methodName>m</methodName><params><param><value><double>abc</double></value></param></params></methodCall>`,
	`<methodCall><methodName>m</methodName><params><param><value><dateTime.iso8601>yesterday</dateTime.iso8601></value></param></params></methodCall>`,
	`<methodCall><methodName>m</methodName><params><param><value><base64>!!!</base64></value></param></params></methodCall>`,
	`<methodCall><methodName>m</methodName><params><param><value><struct><member><name>x</name></member></struct></value></param></params></methodCall>`,
}

// roundTripArg encodes v as the sole argument of a request and decodes it
// back.
func roundTripArg(t *testing.T, v any) any {
	t.Helper()
	raw, err := EncodeRequest("echo", []any{v})
	if err != nil {
		t.Fatalf("EncodeRequest(%#v): %v", v, err)
	}
	req, err := DecodeRequest(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("DecodeRequest(%s): %v", raw, err)
	}
	if req.Method != "echo" {
		t.Fatalf("method = %q, want echo", req.Method)
	}
	if len(req.Args) != 1 {
		t.Fatalf("decoded %d args, want 1", len(req.Args))
	}
	return req.Args[0]
}

func TestRoundTripScalars(t *testing.T) {
	cases := []struct {
		in   any
		want any
	}{
		{42, 42},
		{-7, -7},
		{0, 0},
		{int32(123), 123},
		{int64(1 << 30), 1 << 30},
		{uint16(9), 9},
		{true, true},
		{false, false},
		{"hello grid", "hello grid"},
		{"", ""},
		{3.5, 3.5},
		{float32(0.25), 0.25},
		{-1e-9, -1e-9},
		{math.MaxFloat64, math.MaxFloat64},
	}
	for _, c := range cases {
		got := roundTripArg(t, c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("round trip %#v = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestRoundTripStringEscaping(t *testing.T) {
	hostile := `<script>&"it's"</script> ]]> &amp;`
	got := roundTripArg(t, hostile)
	if got != hostile {
		t.Fatalf("escaped round trip = %q, want %q", got, hostile)
	}
}

func TestRoundTripUnicode(t *testing.T) {
	s := "μερικά ελληνικά — 物理学 — ¡hola!"
	if got := roundTripArg(t, s); got != s {
		t.Fatalf("unicode round trip = %q, want %q", got, s)
	}
}

func TestRoundTripTime(t *testing.T) {
	ts := time.Date(2005, 4, 15, 10, 30, 45, 0, time.UTC)
	got := roundTripArg(t, ts)
	gt, ok := got.(time.Time)
	if !ok {
		t.Fatalf("decoded %T, want time.Time", got)
	}
	if !gt.Equal(ts) {
		t.Fatalf("time round trip = %v, want %v", gt, ts)
	}
}

func TestRoundTripBase64(t *testing.T) {
	blob := []byte{0, 1, 2, 0xff, 0xfe, 'g', 'a', 'e'}
	got := roundTripArg(t, blob)
	if !bytes.Equal(got.([]byte), blob) {
		t.Fatalf("base64 round trip = %v, want %v", got, blob)
	}
}

func TestRoundTripNil(t *testing.T) {
	if got := roundTripArg(t, nil); got != nil {
		t.Fatalf("nil round trip = %#v, want nil", got)
	}
}

func TestRoundTripArray(t *testing.T) {
	in := []any{1, "two", 3.0, true, nil, []any{"nested"}}
	got := roundTripArg(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("array round trip = %#v, want %#v", got, in)
	}
}

func TestRoundTripEmptyArray(t *testing.T) {
	got := roundTripArg(t, []any{})
	if !reflect.DeepEqual(got, []any{}) {
		t.Fatalf("empty array round trip = %#v", got)
	}
}

func TestRoundTripTypedSlices(t *testing.T) {
	if got := roundTripArg(t, []string{"a", "b"}); !reflect.DeepEqual(got, []any{"a", "b"}) {
		t.Errorf("[]string round trip = %#v", got)
	}
	if got := roundTripArg(t, []int{1, 2}); !reflect.DeepEqual(got, []any{1, 2}) {
		t.Errorf("[]int round trip = %#v", got)
	}
	if got := roundTripArg(t, []float64{1.5}); !reflect.DeepEqual(got, []any{1.5}) {
		t.Errorf("[]float64 round trip = %#v", got)
	}
}

func TestRoundTripStruct(t *testing.T) {
	in := map[string]any{
		"status":   "running",
		"priority": 5,
		"cpu":      12.25,
		"flags":    []any{true, false},
		"inner":    map[string]any{"site": "caltech"},
	}
	got := roundTripArg(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("struct round trip = %#v, want %#v", got, in)
	}
}

func TestRoundTripMapStringString(t *testing.T) {
	in := map[string]string{"owner": "alice", "queue": "q32l"}
	want := map[string]any{"owner": "alice", "queue": "q32l"}
	if got := roundTripArg(t, in); !reflect.DeepEqual(got, want) {
		t.Fatalf("map[string]string round trip = %#v", got)
	}
}

func TestStructEncodingDeterministic(t *testing.T) {
	m := map[string]any{"zebra": 1, "alpha": 2, "mid": 3}
	a, err := EncodeRequest("m", []any{m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		b, err := EncodeRequest("m", []any{m})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("struct member order varies between encodings")
		}
	}
	if !strings.Contains(string(a), "<name>alpha</name>") {
		t.Fatalf("missing member in %s", a)
	}
}

func TestEncodeRejectsUnsupported(t *testing.T) {
	for _, v := range []any{make(chan int), func() {}, complex(1, 2), struct{ C chan int }{}} {
		if _, err := EncodeRequest("m", []any{v}); !errors.Is(err, ErrUnsupportedType) {
			t.Errorf("EncodeRequest(%T) error = %v, want ErrUnsupportedType", v, err)
		}
	}
}

func TestEncodeRejectsNonFiniteDouble(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := EncodeRequest("m", []any{f}); !errors.Is(err, ErrUnsupportedType) {
			t.Errorf("EncodeRequest(%v) error = %v, want ErrUnsupportedType", f, err)
		}
	}
}

// TestEncodeRefusesRunesXMLCannotCarry: a document holding such a rune is
// one every decoder refuses, so no encoder may write one. EncodeRequest and
// EncodeResponse fail on it, in a value, a member name or the method name,
// as Serve then answers with an "unencodable result" fault; EncodeFault,
// which cannot fail, writes U+FFFD in its place.
func TestEncodeRefusesRunesXMLCannotCarry(t *testing.T) {
	srv := httptest.NewServer(table{"test.say": func(_ context.Context, args []any) (any, error) {
		b, _ := args[0].([]byte) // the string, sent as base64
		return string(b), nil
	}})
	defer srv.Close()
	c := NewClient(srv.URL)
	defer c.Close()
	for _, s := range []string{"a\uffffb", "a\ufffeb", "a\x01b", "a\x00b"} {
		for what, encode := range map[string]func() ([]byte, error){
			"EncodeRequest arg":    func() ([]byte, error) { return EncodeRequest("m", []any{s}) },
			"EncodeRequest method": func() ([]byte, error) { return EncodeRequest(s, nil) },
			"EncodeResponse":       func() ([]byte, error) { return EncodeResponse([]any{s}) },
			"EncodeResponse key":   func() ([]byte, error) { return EncodeResponse(map[string]int{s: 1}) },
			"EncodeResponse field": func() ([]byte, error) { return EncodeResponse(sample{Tags: []string{s}}) },
		} {
			if doc, err := encode(); !errors.Is(err, ErrUnsupportedType) {
				t.Errorf("%s of %q: %q, %v; want ErrUnsupportedType", what, s, doc, err)
			}
		}
		_, err := DecodeResponse(bytes.NewReader(EncodeFault(&Fault{Code: 7, Message: s})))
		if f, ok := AsFault(err); !ok || *f != (Fault{Code: 7, Message: "a\uFFFDb"}) {
			t.Errorf("EncodeFault of %q decodes to %v, want fault 7 %q", s, err, "a\uFFFDb")
		}
		var got string
		err = c.CallInto(context.Background(), "test.say", &got, []byte(s))
		if f, ok := AsFault(err); !ok || f.Code != FaultInternal || !strings.Contains(f.Message, "unencodable result") {
			t.Errorf("served %q: %q, %v; want an unencodable-result fault", s, got, err)
		}
	}
}

func TestEncodeRejectsInt64Overflow(t *testing.T) {
	if _, err := EncodeRequest("m", []any{int64(math.MaxInt32) + 1}); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("overflowing int64 error = %v, want ErrUnsupportedType", err)
	}
}

func TestDecodeRequestNoParams(t *testing.T) {
	raw := docNoParams
	req, err := DecodeRequest(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "ping" || len(req.Args) != 0 {
		t.Fatalf("got %+v", req)
	}
}

func TestDecodeRequestMissingMethodName(t *testing.T) {
	raw := docMissingMethodName
	if _, err := DecodeRequest(strings.NewReader(raw)); err == nil {
		t.Fatal("missing methodName accepted")
	}
}

func TestDecodeUntypedValueIsString(t *testing.T) {
	raw := docUntypedValue
	req, err := DecodeRequest(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if req.Args[0] != "plain" {
		t.Fatalf("untyped value = %#v, want \"plain\"", req.Args[0])
	}
}

func TestDecodeI4AndI8(t *testing.T) {
	raw := docI4AndI8
	req, err := DecodeRequest(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if req.Args[0] != 7 || req.Args[1] != 1<<40 {
		t.Fatalf("args = %#v", req.Args)
	}
}

func TestDecodeBooleanWords(t *testing.T) {
	raw := docBooleanWords
	req, err := DecodeRequest(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if req.Args[0] != true || req.Args[1] != false {
		t.Fatalf("args = %#v", req.Args)
	}
}

func TestDecodeRFC3339DateAccepted(t *testing.T) {
	raw := docRFC3339Date
	req, err := DecodeRequest(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(2005, 6, 1, 10, 0, 0, 0, time.UTC)
	if !req.Args[0].(time.Time).Equal(want) {
		t.Fatalf("got %v, want %v", req.Args[0], want)
	}
}

func TestDecodeMalformed(t *testing.T) {
	cases := docsMalformed
	for _, raw := range cases {
		if _, err := DecodeRequest(strings.NewReader(raw)); err == nil {
			t.Errorf("malformed request accepted: %s", raw)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	raw, err := EncodeResponse(map[string]any{"ok": true, "n": 3})
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeResponse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"ok": true, "n": 3}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("response round trip = %#v, want %#v", v, want)
	}
}

func TestFaultRoundTrip(t *testing.T) {
	raw := EncodeFault(NewFault(FaultAuth, "bad session <token> & more"))
	_, err := DecodeResponse(bytes.NewReader(raw))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("DecodeResponse error = %v, want *Fault", err)
	}
	if f.Code != FaultAuth || f.Message != "bad session <token> & more" {
		t.Fatalf("fault = %+v", f)
	}
}

func TestDecodeResponseEmpty(t *testing.T) {
	raw := docResponseEmpty
	if _, err := DecodeResponse(strings.NewReader(raw)); err == nil {
		t.Fatal("empty methodResponse accepted")
	}
}

func TestDecodeResponseMultipleParams(t *testing.T) {
	raw := docResponseMultipleParams
	if _, err := DecodeResponse(strings.NewReader(raw)); err == nil {
		t.Fatal("two-param response accepted")
	}
}

func TestIsFaultAndAsFault(t *testing.T) {
	f := NewFault(FaultApplication, "no such plan")
	wrapped := errorsJoin(f)
	if !IsFault(wrapped, FaultApplication) {
		t.Fatal("IsFault failed on wrapped fault")
	}
	if IsFault(wrapped, FaultAuth) {
		t.Fatal("IsFault matched wrong code")
	}
	if IsFault(errors.New("plain"), FaultApplication) {
		t.Fatal("IsFault matched non-fault")
	}
	if _, ok := AsFault(nil); ok {
		t.Fatal("AsFault(nil) returned ok")
	}
}

type wrapErr struct{ inner error }

func (w wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w wrapErr) Unwrap() error { return w.inner }

func errorsJoin(err error) error { return wrapErr{inner: err} }

// Property: a string fails to encode exactly when it holds a rune no XML
// document can carry, and every other string survives a request round
// trip. A quarter of the runes come from the edges of XML's Char range.
func TestQuickStringRoundTrip(t *testing.T) {
	edges := []rune{0, 1, '\t', '\n', '\r', 0x1F, '<', '&', 0xD7FF, 0xE000, 0xFFFD, 0xFFFE, 0xFFFF, 0x10000, 0x10FFFF}
	values := func(args []reflect.Value, r *rand.Rand) {
		rs := make([]rune, r.Intn(20))
		for i := range rs {
			if rs[i] = rune(r.Intn(utf8.MaxRune + 1)); r.Intn(4) == 0 {
				rs[i] = edges[r.Intn(len(edges))]
			}
		}
		args[0] = reflect.ValueOf(string(rs))
	}
	f := func(s string) bool {
		raw, err := EncodeRequest("m", []any{s})
		if strings.ContainsFunc(s, outsideXML) || err != nil {
			return strings.ContainsFunc(s, outsideXML) && errors.Is(err, ErrUnsupportedType)
		}
		req, err := DecodeRequest(bytes.NewReader(raw))
		return err == nil && req.Args[0] == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Values: values}); err != nil {
		t.Fatal(err)
	}
}

// Property: every int32 and finite float64 survives a round trip.
func TestQuickNumericRoundTrip(t *testing.T) {
	fi := func(n int32) bool {
		raw, err := EncodeRequest("m", []any{int(n)})
		if err != nil {
			return false
		}
		req, err := DecodeRequest(bytes.NewReader(raw))
		if err != nil {
			return false
		}
		return req.Args[0] == int(n)
	}
	if err := quick.Check(fi, nil); err != nil {
		t.Fatal(err)
	}
	ff := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		raw, err := EncodeRequest("m", []any{x})
		if err != nil {
			return false
		}
		req, err := DecodeRequest(bytes.NewReader(raw))
		if err != nil {
			return false
		}
		return req.Args[0] == x
	}
	if err := quick.Check(ff, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary byte slices survive base64 round trips.
func TestQuickBase64RoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		raw, err := EncodeRequest("m", []any{b})
		if err != nil {
			return false
		}
		req, err := DecodeRequest(bytes.NewReader(raw))
		if err != nil {
			return false
		}
		got, ok := req.Args[0].([]byte)
		return ok && bytes.Equal(got, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// outsideXML reports whether r, a rune of a valid UTF-8 string, is outside
// XML 1.0's Char production: a C0 control other than TAB, LF and CR, or
// U+FFFE or U+FFFF.
func outsideXML(r rune) bool {
	return r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF
}
