package xmlrpc

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// grammarCase is one clause of the scanner's grammar contract: a document
// and what decoding it must yield (fail: it must be rejected).
type grammarCase struct {
	name string
	doc  string
	want any
	fail bool
}

func reqDoc(value string) string {
	return `<methodCall><methodName>m</methodName><params><param>` + value + `</param></params></methodCall>`
}

var grammarContract = []grammarCase{
	{name: "prolog comments and whitespace between tags",
		doc:  "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- call -->\n<methodCall>\n  <methodName> m </methodName>\n  <params>\n    <param>\n      <value>\n <int> 7 </int>\n </value>\n    </param>\n  </params>\n</methodCall>\n<!-- bye -->\n",
		want: 7},
	{name: "untyped value", doc: reqDoc(`<value> two words </value>`), want: " two words "},
	{name: "empty value", doc: reqDoc(`<value></value>`), want: ""},
	{name: "self-closing value", doc: reqDoc(`<value/>`), want: ""},
	{name: "self-closing string", doc: reqDoc(`<value><string/></value>`), want: ""},
	{name: "self-closing nil", doc: reqDoc(`<value><nil/></value>`), want: nil},
	{name: "self-closing array and struct", doc: reqDoc(`<value><array><data><value><array/></value><value><struct/></value></data></array></value>`),
		want: []any{[]any{}, map[string]any{}}},
	{name: "space inside tags", doc: reqDoc("<value ><i4\n>1</i4\t></value >"), want: 1},
	{name: "i8", doc: reqDoc(`<value><i8>-1099511627776</i8></value>`), want: -(1 << 40)},
	{name: "boolean words", doc: reqDoc(`<value><boolean> false </boolean></value>`), want: false},
	{name: "double", doc: reqDoc(`<value><double>-2.5e-3</double></value>`), want: -2.5e-3},
	{name: "dateTime compact", doc: reqDoc(`<value><dateTime.iso8601>20050415T10:30:45</dateTime.iso8601></value>`),
		want: time.Date(2005, 4, 15, 10, 30, 45, 0, time.UTC)},
	{name: "dateTime RFC 3339 with zone", doc: reqDoc(`<value><dateTime.iso8601>2005-04-15T12:30:45+02:00</dateTime.iso8601></value>`),
		want: time.Date(2005, 4, 15, 10, 30, 45, 0, time.UTC)},
	{name: "dateTime dashed without zone", doc: reqDoc(`<value><dateTime.iso8601>2005-04-15T10:30:45</dateTime.iso8601></value>`),
		want: time.Date(2005, 4, 15, 10, 30, 45, 0, time.UTC)},
	{name: "base64 with embedded whitespace", doc: reqDoc("<value><base64>Z2\n Fl\tZ3\r\nJp ZA==</base64></value>"), want: []byte("gaegrid")},
	{name: "CDATA", doc: reqDoc(`<value><string>a<![CDATA[<b>&amp;]]>c</string></value>`), want: "a<b>&amp;c"},
	{name: "comment inside text", doc: reqDoc(`<value>ab<!-- x -->cd<?pi y?>ef</value>`), want: "abcdef"},
	{name: "named entities", doc: reqDoc(`<value>&lt;&gt;&amp;&apos;&quot;</value>`), want: `<>&'"`},
	{name: "character references", doc: reqDoc(`<value>&#65;&#x42;&#x3bc;&#13;</value>`), want: "ABμ\r"},
	{name: "reference to a surrogate becomes U+FFFD, as in encoding/xml", doc: reqDoc(`<value>&#xD800;&#0000065;</value>`), want: "\uFFFDA"},
	{name: "CR and CRLF fold to LF", doc: reqDoc("<value>a\rb\r\nc\n\rd</value>"), want: "a\nb\nc\n\nd"},
	{name: "text around a typed value is ignored", doc: reqDoc(`<value>x<int>3</int>y</value>`), want: 3},
	{name: "duplicate member names, last wins", doc: reqDoc(`<value><struct><member><name>k</name><value>1</value></member><member><name>k</name><value>2</value></member></struct></value>`),
		want: map[string]any{"k": "2"}},
	{name: "member value before name", doc: reqDoc(`<value><struct><member><value><int>1</int></value><name>k</name></member></struct></value>`),
		want: map[string]any{"k": 1}},
	{name: "array without data, nested data", doc: reqDoc(`<value><array><value>a</value><data><data><value>b</value></data></data></array></value>`),
		want: []any{"a", "b"}},
	{name: "unknown element beside methodName is skipped",
		doc:  `<methodCall><extension><any><thing/>x</any></extension><methodName>m</methodName><params><param><value>v</value></param></params></methodCall>`,
		want: "v"},
	{name: "second element after the root", doc: reqDoc(`<value>v</value>`) + `<trailer>t</trailer>`, want: "v"},

	{name: "no root", doc: " \n", fail: true},
	{name: "not xml", doc: "this is not xml", fail: true},
	{name: "unclosed root", doc: `<methodCall><methodName>m</methodName>`, fail: true},
	{name: "mismatched end tag", doc: reqDoc(`<value><int>1</string></value>`), fail: true},
	{name: "stray end tag after the root", doc: reqDoc(`<value>v</value>`) + `</methodCall>`, fail: true},
	{name: "nameless end tag after the root", doc: reqDoc(`<value>v</value>`) + `</>`, fail: true},
	{name: "junk behind a nameless end tag", doc: reqDoc(`<value>v</value>`) + "</>\xff<", fail: true},
	{name: "unclosed trailer", doc: reqDoc(`<value>v</value>`) + `<trailer>`, fail: true},
	{name: "element inside a scalar", doc: reqDoc(`<value><int><b>1</b></int></value>`), fail: true},
	{name: "two typed elements in a value", doc: reqDoc(`<value><int>1</int><int>2</int></value>`), fail: true},
	{name: "invalid UTF-8", doc: reqDoc("<value>\xff</value>"), fail: true},
	{name: "control character", doc: reqDoc("<value>\x01</value>"), fail: true},
	{name: "U+FFFE", doc: reqDoc("<value>\uFFFE</value>"), fail: true},
	{name: "reference to a non-Char", doc: reqDoc(`<value>&#0;</value>`), fail: true},
	{name: "unknown entity", doc: reqDoc(`<value>&nbsp;</value>`), fail: true},
	{name: "bare ampersand", doc: reqDoc(`<value>a & b</value>`), fail: true},
	{name: "]]> in text", doc: reqDoc(`<value>a]]>b</value>`), fail: true},
	{name: "-- in comment", doc: reqDoc(`<value>v</value>`) + `<!-- a -- b -->`, fail: true},
	{name: "unterminated CDATA", doc: reqDoc(`<value><![CDATA[v</value>`), fail: true},
	{name: "XML 1.1", doc: `<?xml version="1.1"?>` + reqDoc(`<value>v</value>`), fail: true},
	{name: "NaN double", doc: reqDoc(`<value><double>NaN</double></value>`), fail: true},
	{name: "Inf double", doc: reqDoc(`<value><double>Inf</double></value>`), fail: true},
	{name: "-Inf double", doc: reqDoc(`<value><double> -Inf </double></value>`), fail: true},

	// The XML features XML-RPC peers do not use and the scanner refuses.
	{name: "DOCTYPE", doc: `<!DOCTYPE methodCall>` + reqDoc(`<value>v</value>`), fail: true},
	{name: "attribute", doc: reqDoc(`<value kind="x">v</value>`), fail: true},
	{name: "namespace prefix", doc: reqDoc(`<x:value>v</x:value>`), fail: true},
	{name: "non-UTF-8 encoding", doc: `<?xml version="1.0" encoding="ISO-8859-1"?>` + reqDoc(`<value>v</value>`), fail: true},
	{name: "non-ASCII element name", doc: `<methodCall><é/><methodName>m</methodName></methodCall>`, fail: true},
}

// TestDecodeGrammarContract pins the accepted grammar clause by clause,
// independently of the oracle.
func TestDecodeGrammarContract(t *testing.T) {
	for _, c := range grammarContract {
		req, err := DecodeRequest(strings.NewReader(c.doc))
		switch {
		case c.fail && err == nil:
			t.Errorf("%s: accepted %q as %#v", c.name, c.doc, req.Args)
		case !c.fail && err != nil:
			t.Errorf("%s: %q rejected: %v", c.name, c.doc, err)
		case !c.fail && (req.Method != "m" || len(req.Args) != 1 || !reflect.DeepEqual(req.Args[0], c.want)):
			t.Errorf("%s: decoded %q %#v, want [%#v]", c.name, req.Method, req.Args, c.want)
		}
	}
}

func TestDecodeResponseGrammar(t *testing.T) {
	fault := `<fault><value><struct><member><name>faultString</name><value>no</value></member>` +
		`<member><name>faultCode</name><value><int>4</int></value></member></struct></value></fault>`
	cases := []struct {
		doc       string
		want      any
		wantFault *Fault
		fail      bool
	}{
		{doc: `<methodResponse><params><param><value><int>1</int></value></param></params></methodResponse>`, want: 1},
		{doc: `<methodResponse><note/><params><param><value>a</value><value>b</value></param></params><params/></methodResponse> `, want: "b"},
		{doc: `<methodResponse>` + fault + `</methodResponse>`, wantFault: &Fault{Code: 4, Message: "no"}},
		{doc: `<methodResponse><fault><value><struct/></value><value>ignored</value></fault><params/></methodResponse>`, wantFault: &Fault{}},
		{doc: `<methodResponse><params/></methodResponse>`, fail: true},
		{doc: `<methodResponse><fault/></methodResponse>`, fail: true},
		{doc: `<methodResponse><fault><value>text</value></fault></methodResponse>`, fail: true},
		{doc: `<methodResponse>` + fault, fail: true},
		{doc: `<methodResponse><params><param><value>a</value></param></params><x></methodResponse>`, fail: true},
		{doc: `<methodCall><methodName>m</methodName></methodCall>`, fail: true},
		{doc: `<methodResponse><params><param><value>a</value></param></params></methodResponse></>`, fail: true},
		{doc: "<methodResponse><params><param><value>a</value></param></params></methodResponse></>\xff<", fail: true},
	}
	for _, c := range cases {
		got, err := DecodeResponse(strings.NewReader(c.doc))
		var f *Fault
		switch {
		case errors.As(err, &f):
			if c.wantFault == nil || *f != *c.wantFault {
				t.Errorf("%q: fault %+v, want %+v", c.doc, f, c.wantFault)
			}
		case c.fail != (err != nil) || c.wantFault != nil:
			t.Errorf("%q: err = %v, want fail=%v fault=%v", c.doc, err, c.fail, c.wantFault)
		case !c.fail && !reflect.DeepEqual(got, c.want):
			t.Errorf("%q: decoded %#v, want %#v", c.doc, got, c.want)
		}
	}
}

// nestedDoc is a request whose <methodCall> holds open repeated n times
// around nothing, closed again.
func nestedDoc(n int, open, end string) string {
	return "<methodCall><methodName>m</methodName>" + strings.Repeat(open, n) + strings.Repeat(end, n) + "</methodCall>"
}

// TestDecodeDepthBound: the decoder recurses once per open element, so it
// must refuse deep nesting with an error instead of growing the stack — a
// body within MaxRequestBytes can nest 400 000 levels, which used to end
// the process with a stack overflow no recover catches.
func TestDecodeDepthBound(t *testing.T) {
	arrays := func(n int) string { // n levels cost 3n elements inside <methodCall><params><param>
		return "<methodCall><methodName>m</methodName><params><param>" + strings.Repeat("<value><array><data>", n) +
			strings.Repeat("</data></array></value>", n) + "</param></params></methodCall>"
	}
	for _, c := range []struct {
		name, doc string
		fail      bool
	}{
		{"skipped elements at the bound", nestedDoc(maxDepth-1, "<a>", "</a>"), false},
		{"skipped elements past it", nestedDoc(maxDepth, "<a>", "</a>"), true},
		{"self-closing element past it", strings.Replace(nestedDoc(maxDepth-1, "<a>", "</a>"), "<a></a>", "<a><a/></a>", 1), true},
		{"arrays at the bound", arrays((maxDepth - 3) / 3), false},
		{"arrays past it", arrays((maxDepth-3)/3 + 1), true},
		// Depth is nesting, not a count of elements seen.
		{"many siblings", "<methodCall><methodName>m</methodName><params><param><value><array><data>" +
			strings.Repeat("<value/><value><nil/></value>", 4*maxDepth) + "</data></array></value></param></params></methodCall>", false},
	} {
		if _, err := DecodeRequest(strings.NewReader(c.doc)); c.fail != (err != nil) {
			t.Errorf("%s: err = %v, want fail=%v", c.name, err, c.fail)
		}
	}

	// As deep as MaxRequestBytes allows, unclosed: a request, which the
	// server answers with a parse fault, and a reply, which fails the call.
	var reply string
	srv := httptest.NewServer(table{})
	defer srv.Close()
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, reply) //nolint:errcheck
	}))
	defer hostile.Close()
	client := NewClient(hostile.URL)
	defer client.Close()
	for _, c := range []struct{ head, unit string }{
		{"<methodCall><methodName>m</methodName><params><param>", "<value><array><data>"},
		{"<methodCall><methodName>m</methodName>", "<a>"},
		{"<methodResponse><params><param>", "<value><array><data>"},
		{"<methodResponse>", "<a>"},
	} {
		doc := c.head + strings.Repeat(c.unit, (MaxRequestBytes-len(c.head))/len(c.unit))
		if strings.HasPrefix(doc, "<methodCall>") {
			if _, err := DecodeRequest(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "nested deeper") {
				t.Errorf("DecodeRequest of %d bytes of nested %s: %v", len(doc), c.unit, err)
			}
			resp, err := http.Post(srv.URL, "text/xml", strings.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			_, err = DecodeResponse(resp.Body)
			resp.Body.Close()
			if !IsFault(err, FaultParse) || !strings.Contains(err.Error(), "nested deeper") {
				t.Errorf("server answered %d bytes of nested %s with %v, want a parse fault", len(doc), c.unit, err)
			}
			continue
		}
		if _, err := DecodeResponse(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("DecodeResponse of %d bytes of nested %s: %v", len(doc), c.unit, err)
		}
		reply = doc
		if _, err := client.Call(context.Background(), "m"); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("Call answered by %d bytes of nested %s: %v", len(doc), c.unit, err)
		}
	}
}

// xmlVerdict reads data to the end with encoding/xml. err is that
// package's verdict on well-formedness (the oracle decoder stops at the
// end of the element it wanted; the scanner must read on). unsupported
// reports that the document, as far as it is well-formed, uses one of the
// XML features the scanner refuses by design: a directive, an attribute,
// a name that is prefixed or not ASCII, or elements nested deeper than
// maxDepth.
func xmlVerdict(data []byte) (unsupported bool, err error) {
	depth := 0
	odd := func(n xml.Name) bool {
		return n.Space != "" || strings.ContainsFunc(n.Local, func(r rune) bool { return r == ':' || r >= 0x80 })
	}
	d := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return unsupported, nil
		}
		if err != nil {
			return unsupported, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			unsupported = unsupported || odd(t.Name) || len(t.Attr) > 0 || depth > maxDepth
		case xml.EndElement:
			depth--
			unsupported = unsupported || odd(t.Name)
		case xml.ProcInst:
			unsupported = unsupported || odd(xml.Name{Local: t.Target})
		case xml.Directive:
			unsupported = true
		}
	}
}

// sameWire is reflect.DeepEqual over decoded wire values, except that
// doubles compare by bit pattern: <double>NaN</double> parses.
func sameWire(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && (math.Float64bits(x) == math.Float64bits(y) || x != x && y != y)
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameWire(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if w, ok := y[k]; !ok || !sameWire(v, w) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

// checkAgainstOracle holds one decoder entry point to the differential
// contract on one input. got/gotErr are the scanner's answer,
// want/wantErr the encoding/xml oracle's.
func checkAgainstOracle(t *testing.T, what string, data []byte, got any, gotErr error, want any, wantErr error) {
	t.Helper()
	unsupported, xmlErr := xmlVerdict(data)
	if unsupported {
		if gotErr == nil {
			t.Fatalf("%s accepted a document using an unsupported XML feature: %q", what, data)
		}
		return
	}
	var gotFault, wantFault *Fault
	if errors.As(wantErr, &wantFault) && xmlErr == nil {
		if !errors.As(gotErr, &gotFault) || *gotFault != *wantFault {
			t.Fatalf("%s(%q): %v, oracle fault %+v", what, data, gotErr, wantFault)
		}
		return
	}
	if errors.As(gotErr, &gotFault) {
		t.Fatalf("%s(%q): fault %+v, oracle %v / %v", what, data, gotFault, wantErr, xmlErr)
	}
	if wantErr == nil {
		wantErr = xmlErr
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s(%q): scanner err = %v, oracle err = %v", what, data, gotErr, wantErr)
	}
	if gotErr == nil && !sameWire(got, want) {
		t.Fatalf("%s(%q): scanner %#v, oracle %#v", what, data, got, want)
	}
}

// FuzzDecodeAgainstEncodingXML is the differential test of the scanner:
// on every input it and the encoding/xml decoder it replaced must both
// reject or decode equal values (the oracle's verdict extended by
// well-formedness of the whole document), except that inputs using the
// XML features the package comment lists must be rejected. Every response
// both accept is also decoded straight into the typed destinations of
// checkDecodeInto, which must take it as Unmarshal takes the oracle's tree:
// equal value or both an error, never a panic.
func FuzzDecodeAgainstEncodingXML(f *testing.F) {
	seeds := []string{docNoParams, docMissingMethodName, docUntypedValue, docI4AndI8, docBooleanWords,
		docRFC3339Date, docResponseEmpty, docResponseMultipleParams}
	seeds = append(seeds, docsMalformed...)
	for _, c := range grammarContract {
		seeds = append(seeds, c.doc)
	}
	seeds = append(seeds, nestedDoc(maxDepth-1, "<a>", "</a>"), nestedDoc(maxDepth, "<a>", "</a>"),
		"<methodResponse><params><param><value><int>1</int></value></param></params></methodResponse></>\xff<")
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	for _, doc := range typedSeeds(f) {
		f.Add(doc)
	}
	// Encoder output for the values FuzzStructCodecRoundTrip starts from,
	// as a response, a request and a fault.
	for _, in := range []sample{
		{Name: "plan", Count: 3, Ratio: 0.5, OK: true, Tags: []string{"tag"}, Started: time.Unix(1104537600, 0).UTC()},
		{Count: -1, Ratio: -12.75, Tags: []string{""}},
		{Name: "a&b<c>'d\"", Count: math.MaxInt32, Ratio: math.SmallestNonzeroFloat64, OK: true, Tags: []string{"x\ny"},
			Started: time.Unix(4102444800, 0).UTC(), Kids: []nested{{Label: "k", Score: 1}}, Child: &nested{Label: "c\r"}},
	} {
		w, err := Marshal(in)
		if err != nil {
			f.Fatal(err)
		}
		resp, err := EncodeResponse(w)
		if err != nil {
			f.Fatal(err)
		}
		req, err := EncodeRequest("plan.put", []any{w, in.Name, []byte(in.Name)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(resp)
		f.Add(req)
		f.Add(EncodeFault(NewFault(in.Count, "%s", in.Name)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(bytes.NewReader(data))
		wantReq, wantErr := oracleDecodeRequest(bytes.NewReader(data))
		var got, want any
		if err == nil {
			got = []any{req.Method, req.Args}
		}
		if wantErr == nil {
			want = []any{wantReq.Method, wantReq.Args}
		}
		checkAgainstOracle(t, "DecodeRequest", data, got, err, want, wantErr)

		got, err = DecodeResponse(bytes.NewReader(data))
		want, wantErr = oracleDecodeResponse(bytes.NewReader(data))
		checkAgainstOracle(t, "DecodeResponse", data, got, err, want, wantErr)
		if err == nil && wantErr == nil {
			checkDecodeInto(t, data, want)
		}
	})
}
