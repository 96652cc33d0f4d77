package classad

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokInt
	tokReal
	tokString
	tokIdent // identifiers and keyword literals (true/false/undefined/error)
	tokOp    // operators and punctuation; token.op says which
)

// token is the parser's current token. The lexer scans into it in place.
// text is the token's source text; a string literal's is its content,
// which is a substring of the source unless the literal has escapes.
type token struct {
	kind tokKind
	op   opcode
	pos  int
	text string
}

type lexer struct {
	src string
	pos int
}

// Character classes of the ASCII bytes; every byte from utf8.RuneSelf up
// starts a multi-byte rune and is classified by decoding it.
const (
	cBad   uint8 = iota // not valid here: the lexer reports it
	cSpace              // skipped
	cDigit              // starts a number
	cIdent              // starts or continues an identifier: a letter or '_'
	cQuote              // starts a string
	cOp                 // starts an operator or punctuation
)

var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for _, c := range " \t\n\r" {
		t[c] = cSpace
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = cDigit
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = cIdent, cIdent
	}
	t['_'] = cIdent
	t['"'] = cQuote
	for _, c := range "+-*/%<>!=&|(),.{}?:" {
		t[c] = cOp
	}
	return t
}()

// singleOps maps each one-character operator or punctuation mark to its
// code; '=', '&' and '|' are only the first halves of two-character ones.
var singleOps = func() (t [utf8.RuneSelf]opcode) {
	for c, op := range map[byte]opcode{
		'+': opAdd, '-': opSub, '*': opMul, '/': opDiv, '%': opMod, '<': opLt, '>': opGt, '!': opNot,
		'(': pLParen, ')': pRParen, ',': pComma, '.': pDot, '{': pLBrace, '}': pRBrace, '?': pQuestion, ':': pColon,
	} {
		t[c] = op
	}
	return t
}()

// scan reads the next token into tok; the parser pulls them on demand,
// so no token slice is ever materialised. It is strict: unknown
// characters are errors so misquoted job requirements fail loudly at
// submit time, not at match time.
func (l *lexer) scan(tok *token) error {
	l.skipSpace()
	tok.pos = l.pos
	if l.pos >= len(l.src) {
		tok.kind, tok.text = tokEOF, ""
		return nil
	}
	c := l.src[l.pos]
	if c >= utf8.RuneSelf {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentStart(r) {
			return fmt.Errorf("classad: unexpected character %q at %d", r, l.pos)
		}
		l.pos += size
		l.lexIdent(tok)
		return nil
	}
	switch asciiClass[c] {
	case cDigit:
		l.lexNumber(tok)
		return nil
	case cIdent:
		l.pos++
		l.lexIdent(tok)
		return nil
	case cQuote:
		return l.lexString(tok)
	case cOp:
		if c == '.' && l.peekDigit() {
			l.lexNumber(tok)
			return nil
		}
		return l.lexOp(tok)
	}
	return fmt.Errorf("classad: unexpected character %q at %d", rune(c), l.pos)
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c < utf8.RuneSelf && asciiClass[c] == cSpace {
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

func (l *lexer) lexNumber(tok *token) {
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
	tok.kind, tok.text = tokInt, l.src[start:l.pos]
	if seenDot || seenExp {
		tok.kind = tokReal
	}
}

// lexString reads a string literal. One without escapes is its source's
// substring; only an escape costs a copy.
func (l *lexer) lexString(tok *token) error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	escaped := false
	from := l.pos // start of the run not yet copied into sb
	for l.pos < len(l.src) {
		switch c := l.src[l.pos]; c {
		case '"':
			tok.kind, tok.text = tokString, l.src[from:l.pos]
			if escaped {
				sb.WriteString(tok.text)
				tok.text = sb.String()
			}
			l.pos++
			return nil
		case '\\':
			escaped = true
			sb.WriteString(l.src[from:l.pos])
			l.pos++
			if l.pos >= len(l.src) {
				return fmt.Errorf("classad: unterminated escape at %d", start)
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
				return fmt.Errorf("classad: bad escape \\%c at %d", e, l.pos)
			}
			l.pos++
			from = l.pos
		default:
			l.pos++
		}
	}
	return fmt.Errorf("classad: unterminated string at %d", start)
}

// lexIdent reads the rest of an identifier whose first character the
// caller consumed, decoding runes: names are Unicode letters, digits and
// '_', as validAttrName accepts them.
func (l *lexer) lexIdent(tok *token) {
	start := tok.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c < utf8.RuneSelf {
			if cl := asciiClass[c]; cl != cIdent && cl != cDigit {
				break
			}
			l.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.pos += size
	}
	tok.kind, tok.text = tokIdent, l.src[start:l.pos]
}

func (l *lexer) lexOp(tok *token) error {
	start := l.pos
	c := l.src[l.pos]
	var next byte
	if l.pos+1 < len(l.src) {
		next = l.src[l.pos+1]
	}
	op, size := singleOps[c], 1
	switch {
	case next == '=' && (c == '=' || c == '!' || c == '<' || c == '>'):
		op, size = withEq[c], 2
	case c == '&' && next == '&':
		op, size = opAnd, 2
	case c == '|' && next == '|':
		op, size = opOr, 2
	case op == 0:
		return fmt.Errorf("classad: unexpected character %q at %d", rune(c), start)
	}
	l.pos += size
	tok.kind, tok.op, tok.text = tokOp, op, l.src[start:l.pos]
	return nil
}

// withEq codes the comparisons spelled with a trailing '='.
var withEq = [utf8.RuneSelf]opcode{'=': opEq, '!': opNe, '<': opLe, '>': opGe}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
