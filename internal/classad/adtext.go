package classad

import (
	"fmt"
	"strings"
)

// ParseAd parses the [name = expr; ...] form produced by Ad.String back
// into an Ad, restoring the literal-vs-expression distinction: an
// attribute whose source is a single literal is stored as a literal value
// (so LiteralString and the negotiator's index builders behave exactly as
// they did for the original ad), while anything else is stored as a
// parsed expression. It is the snapshot codec's inverse of Ad.String —
// ParseAd(a.String()).String() == a.String().
func ParseAd(src string) (*Ad, error) {
	s := strings.TrimSpace(src)
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return nil, fmt.Errorf("classad: ad must be bracketed: %q", src)
	}
	inner := s[1 : len(s)-1]

	ad := New()
	for _, seg := range splitAdSegments(inner) {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		name, exprSrc, err := splitAttr(seg)
		if err != nil {
			return nil, err
		}
		e, err := Parse(exprSrc)
		if err != nil {
			return nil, fmt.Errorf("classad: attribute %s: %w", name, err)
		}
		if e.op == opLit {
			// The literal's own copy: a string's bytes would otherwise be
			// the whole ad text's.
			v := (*node)(e).lit()
			if v.kind == KindString {
				v = Str(strings.Clone(v.str()))
			}
			ad.put(newEntry(name, v, nil))
		} else {
			ad.put(newEntry(name, Value{}, e))
		}
		ad.version++
	}
	return ad, nil
}

// splitAdSegments splits an ad body at top-level semicolons, respecting
// string literals (with escapes), parenthesis/brace nesting, and line
// comments.
func splitAdSegments(inner string) []string {
	var segs []string
	depth := 0
	start := 0
	for i := 0; i < len(inner); i++ {
		switch inner[i] {
		case '"':
			// Skip the string literal, honoring backslash escapes.
			for i++; i < len(inner); i++ {
				if inner[i] == '\\' {
					i++
				} else if inner[i] == '"' {
					break
				}
			}
		case '/':
			if i+1 < len(inner) && inner[i+1] == '/' {
				for i < len(inner) && inner[i] != '\n' {
					i++
				}
			}
		case '(', '{':
			depth++
		case ')', '}':
			depth--
		case ';':
			if depth == 0 {
				segs = append(segs, inner[start:i])
				start = i + 1
			}
		}
	}
	segs = append(segs, inner[start:])
	return segs
}

// splitAttr splits one "name = expr" segment.
func splitAttr(seg string) (name, exprSrc string, err error) {
	eq := -1
	for i := 0; i < len(seg); i++ {
		c := seg[i]
		if c != '=' {
			continue
		}
		// Skip ==, <=, >=, != — the first bare '=' is the binder, and it
		// always precedes any comparison in a well-formed attribute.
		if i+1 < len(seg) && seg[i+1] == '=' {
			i++
			continue
		}
		if i > 0 && (seg[i-1] == '<' || seg[i-1] == '>' || seg[i-1] == '!' || seg[i-1] == '=') {
			continue
		}
		eq = i
		break
	}
	if eq < 0 {
		return "", "", fmt.Errorf("classad: attribute missing '=': %q", strings.TrimSpace(seg))
	}
	name = strings.TrimSpace(seg[:eq])
	exprSrc = strings.TrimSpace(seg[eq+1:])
	if name == "" || !validAttrName(name) {
		return "", "", fmt.Errorf("classad: bad attribute name %q", name)
	}
	if exprSrc == "" {
		return "", "", fmt.Errorf("classad: attribute %s has empty value", name)
	}
	return name, exprSrc, nil
}

func validAttrName(name string) bool {
	for i, r := range name {
		if i == 0 && !isIdentStart(r) {
			return false
		}
		if i > 0 && !isIdentPart(r) {
			return false
		}
	}
	return true
}
