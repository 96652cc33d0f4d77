package classad

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokInt
	tokReal
	tokString
	tokIdent // identifiers and keyword literals (true/false/undefined/error)
	tokOp    // operators and punctuation
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src string
	pos int
}

// next scans one token; the parser pulls them on demand, so no token
// slice is ever materialised. It is strict: unknown characters are errors
// so misquoted job requirements fail loudly at submit time, not at match
// time.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	c := l.src[l.pos]
	switch {
	case c >= '0' && c <= '9', c == '.' && l.peekDigit():
		return l.lexNumber(), nil
	case c == '"':
		return l.lexString()
	case isIdentStart(rune(c)):
		return l.lexIdent(), nil
	default:
		return l.lexOp()
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// Line comments: // to end of line (ClassAd files allow them).
		if c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func (l *lexer) peekDigit() bool {
	return l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'
}

func (l *lexer) lexNumber() token {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	if seenDot || seenExp {
		return token{kind: tokReal, text: text, pos: start}
	}
	return token{kind: tokInt, text: text, pos: start}
}

func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			return token{kind: tokString, text: sb.String(), pos: start}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return token{}, fmt.Errorf("classad: unterminated escape at %d", start)
			}
			switch e := l.src[l.pos]; e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '"', '\\':
				sb.WriteByte(e)
			default:
				return token{}, fmt.Errorf("classad: bad escape \\%c at %d", e, l.pos)
			}
			l.pos++
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return token{}, fmt.Errorf("classad: unterminated string at %d", start)
}

func (l *lexer) lexIdent() token {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
}

var twoCharOps = []string{"==", "!=", "<=", ">=", "&&", "||"}

func (l *lexer) lexOp() (token, error) {
	start := l.pos
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		for _, op := range twoCharOps {
			if two == op {
				l.pos += 2
				return token{kind: tokOp, text: op, pos: start}, nil
			}
		}
	}
	c := l.src[l.pos]
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '!', '(', ')', ',', '.', '{', '}', '?', ':':
		l.pos++
		return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil
	}
	return token{}, fmt.Errorf("classad: unexpected character %q at %d", c, start)
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
