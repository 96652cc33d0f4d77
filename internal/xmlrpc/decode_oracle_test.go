package xmlrpc

import (
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// This file is the encoding/xml token-walk decoder that served production
// until the hand-written scanner in decode.go replaced it, moved here
// verbatim (identifiers prefixed "oracle") as the differential oracle of
// FuzzDecodeAgainstEncodingXML. One rule was added to both since: a double
// must be finite.

// oracleDecodeRequest parses a <methodCall> document.
func oracleDecodeRequest(r io.Reader) (*Request, error) {
	d := xml.NewDecoder(r)
	if err := oracleExpectStart(d, "methodCall"); err != nil {
		return nil, err
	}
	req := &Request{}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: truncated methodCall: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "methodName":
				name, err := oracleReadCharData(d, "methodName")
				if err != nil {
					return nil, err
				}
				req.Method = strings.TrimSpace(name)
			case "params":
				args, err := oracleDecodeParams(d)
				if err != nil {
					return nil, err
				}
				req.Args = args
			default:
				if err := d.Skip(); err != nil {
					return nil, err
				}
			}
		case xml.EndElement:
			if t.Name.Local == "methodCall" {
				if req.Method == "" {
					return nil, fmt.Errorf("xmlrpc: methodCall missing methodName")
				}
				return req, nil
			}
		}
	}
}

// oracleDecodeResponse parses a <methodResponse> document, returning the result
// value or a *Fault as the error.
func oracleDecodeResponse(r io.Reader) (any, error) {
	d := xml.NewDecoder(r)
	if err := oracleExpectStart(d, "methodResponse"); err != nil {
		return nil, err
	}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: truncated methodResponse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "params":
				args, err := oracleDecodeParams(d)
				if err != nil {
					return nil, err
				}
				if len(args) != 1 {
					return nil, fmt.Errorf("xmlrpc: response carries %d params, want 1", len(args))
				}
				return args[0], nil
			case "fault":
				return nil, oracleDecodeFault(d)
			default:
				if err := d.Skip(); err != nil {
					return nil, err
				}
			}
		case xml.EndElement:
			if t.Name.Local == "methodResponse" {
				return nil, fmt.Errorf("xmlrpc: empty methodResponse")
			}
		}
	}
}

// oracleDecodeParams consumes the contents of an already-opened <params> element.
func oracleDecodeParams(d *xml.Decoder) ([]any, error) {
	var args []any
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: truncated params: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "param" {
				return nil, fmt.Errorf("xmlrpc: unexpected <%s> in params", t.Name.Local)
			}
			v, err := oracleDecodeParam(d)
			if err != nil {
				return nil, err
			}
			args = append(args, v)
		case xml.EndElement:
			if t.Name.Local == "params" {
				return args, nil
			}
		}
	}
}

// oracleDecodeParam consumes an already-opened <param> element.
func oracleDecodeParam(d *xml.Decoder) (any, error) {
	var val any
	seen := false
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: truncated param: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "value" {
				return nil, fmt.Errorf("xmlrpc: unexpected <%s> in param", t.Name.Local)
			}
			val, err = oracleDecodeValue(d)
			if err != nil {
				return nil, err
			}
			seen = true
		case xml.EndElement:
			if t.Name.Local == "param" {
				if !seen {
					return nil, fmt.Errorf("xmlrpc: param without value")
				}
				return val, nil
			}
		}
	}
}

// oracleDecodeValue consumes the contents of an already-opened <value> element
// through its matching end tag.
func oracleDecodeValue(d *xml.Decoder) (any, error) {
	var text strings.Builder
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: truncated value: %w", err)
		}
		switch t := tok.(type) {
		case xml.CharData:
			text.Write(t)
		case xml.StartElement:
			v, err := oracleDecodeTyped(d, t.Name.Local)
			if err != nil {
				return nil, err
			}
			if err := oracleConsumeEnd(d, "value"); err != nil {
				return nil, err
			}
			return v, nil
		case xml.EndElement:
			if t.Name.Local == "value" {
				// Untyped <value>text</value> is a string per the spec.
				return text.String(), nil
			}
		}
	}
}

// oracleDecodeTyped decodes the body of a type element such as <int> or <array>.
func oracleDecodeTyped(d *xml.Decoder, typ string) (any, error) {
	switch typ {
	case "int", "i4", "i8":
		s, err := oracleReadCharData(d, typ)
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: bad %s %q", typ, s)
		}
		return int(n), nil
	case "boolean":
		s, err := oracleReadCharData(d, typ)
		if err != nil {
			return nil, err
		}
		switch strings.TrimSpace(s) {
		case "1", "true":
			return true, nil
		case "0", "false":
			return false, nil
		}
		return nil, fmt.Errorf("xmlrpc: bad boolean %q", s)
	case "string":
		return oracleReadCharData(d, typ)
	case "double":
		s, err := oracleReadCharData(d, typ)
		if err != nil {
			return nil, err
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("xmlrpc: bad double %q", s)
		}
		return f, nil
	case "dateTime.iso8601":
		s, err := oracleReadCharData(d, typ)
		if err != nil {
			return nil, err
		}
		s = strings.TrimSpace(s)
		for _, layout := range []string{iso8601, time.RFC3339, "2006-01-02T15:04:05"} {
			if ts, err := time.Parse(layout, s); err == nil {
				return ts.UTC(), nil
			}
		}
		return nil, fmt.Errorf("xmlrpc: bad dateTime %q", s)
	case "base64":
		s, err := oracleReadCharData(d, typ)
		if err != nil {
			return nil, err
		}
		b, err := base64.StdEncoding.DecodeString(strings.Map(oracleDropSpace, s))
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: bad base64: %v", err)
		}
		return b, nil
	case "nil":
		if err := oracleConsumeEnd(d, "nil"); err != nil {
			return nil, err
		}
		return nil, nil
	case "array":
		return oracleDecodeArray(d)
	case "struct":
		return oracleDecodeStruct(d)
	default:
		return nil, fmt.Errorf("xmlrpc: unknown value type <%s>", typ)
	}
}

// oracleDecodeArray consumes an already-opened <array> element.
func oracleDecodeArray(d *xml.Decoder) (any, error) {
	out := []any{}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: truncated array: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "data":
				// elements handled by the value case below
			case "value":
				v, err := oracleDecodeValue(d)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			default:
				return nil, fmt.Errorf("xmlrpc: unexpected <%s> in array", t.Name.Local)
			}
		case xml.EndElement:
			if t.Name.Local == "array" {
				return out, nil
			}
		}
	}
}

// oracleDecodeStruct consumes an already-opened <struct> element.
func oracleDecodeStruct(d *xml.Decoder) (any, error) {
	out := map[string]any{}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: truncated struct: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "member" {
				return nil, fmt.Errorf("xmlrpc: unexpected <%s> in struct", t.Name.Local)
			}
			name, val, err := oracleDecodeMember(d)
			if err != nil {
				return nil, err
			}
			out[name] = val
		case xml.EndElement:
			if t.Name.Local == "struct" {
				return out, nil
			}
		}
	}
}

func oracleDecodeMember(d *xml.Decoder) (string, any, error) {
	var name string
	var val any
	haveName, haveVal := false, false
	for {
		tok, err := d.Token()
		if err != nil {
			return "", nil, fmt.Errorf("xmlrpc: truncated member: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "name":
				name, err = oracleReadCharData(d, "name")
				if err != nil {
					return "", nil, err
				}
				haveName = true
			case "value":
				val, err = oracleDecodeValue(d)
				if err != nil {
					return "", nil, err
				}
				haveVal = true
			default:
				return "", nil, fmt.Errorf("xmlrpc: unexpected <%s> in member", t.Name.Local)
			}
		case xml.EndElement:
			if t.Name.Local == "member" {
				if !haveName || !haveVal {
					return "", nil, fmt.Errorf("xmlrpc: incomplete struct member")
				}
				return name, val, nil
			}
		}
	}
}

// oracleDecodeFault consumes an already-opened <fault> element and returns the
// contained *Fault.
func oracleDecodeFault(d *xml.Decoder) error {
	for {
		tok, err := d.Token()
		if err != nil {
			return fmt.Errorf("xmlrpc: truncated fault: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "value" {
				return fmt.Errorf("xmlrpc: unexpected <%s> in fault", t.Name.Local)
			}
			v, err := oracleDecodeValue(d)
			if err != nil {
				return err
			}
			m, ok := v.(map[string]any)
			if !ok {
				return fmt.Errorf("xmlrpc: fault value is %T, want struct", v)
			}
			f := &Fault{}
			if c, ok := m["faultCode"].(int); ok {
				f.Code = c
			}
			if s, ok := m["faultString"].(string); ok {
				f.Message = s
			}
			return f
		case xml.EndElement:
			if t.Name.Local == "fault" {
				return fmt.Errorf("xmlrpc: empty fault")
			}
		}
	}
}

// oracleExpectStart advances to the first start element, which must be <name>.
func oracleExpectStart(d *xml.Decoder, name string) error {
	for {
		tok, err := d.Token()
		if err != nil {
			return fmt.Errorf("xmlrpc: reading document: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != name {
				return fmt.Errorf("xmlrpc: root element <%s>, want <%s>", t.Name.Local, name)
			}
			return nil
		case xml.ProcInst, xml.CharData, xml.Comment, xml.Directive:
			// skip prologue
		default:
			return fmt.Errorf("xmlrpc: unexpected token %T before <%s>", tok, name)
		}
	}
}

// oracleReadCharData reads the character content of the current element through
// its end tag.
func oracleReadCharData(d *xml.Decoder, name string) (string, error) {
	var sb strings.Builder
	for {
		tok, err := d.Token()
		if err != nil {
			return "", fmt.Errorf("xmlrpc: truncated <%s>: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.CharData:
			sb.Write(t)
		case xml.EndElement:
			if t.Name.Local == name {
				return sb.String(), nil
			}
		case xml.StartElement:
			return "", fmt.Errorf("xmlrpc: unexpected <%s> inside <%s>", t.Name.Local, name)
		}
	}
}

// oracleConsumeEnd reads tokens until the end tag of name, skipping whitespace.
func oracleConsumeEnd(d *xml.Decoder, name string) error {
	for {
		tok, err := d.Token()
		if err != nil {
			return fmt.Errorf("xmlrpc: seeking </%s>: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.EndElement:
			if t.Name.Local == name {
				return nil
			}
		case xml.CharData:
			// ignore whitespace between tags
		case xml.StartElement:
			return fmt.Errorf("xmlrpc: unexpected <%s> before </%s>", t.Name.Local, name)
		}
	}
}

func oracleDropSpace(r rune) rune {
	switch r {
	case ' ', '\t', '\n', '\r':
		return -1
	}
	return r
}
