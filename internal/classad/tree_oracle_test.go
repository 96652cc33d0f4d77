package classad

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The tree implementation of the expression language: a lexer that
// returns tokens by value, a parser that allocates one interface node per
// operator, reference and literal, and an evaluator that switches on
// operator text. It was the production path until expressions became one
// block of opcodes (parse.go, eval.go); it stays here as the oracle that
// FuzzExprAgainstTree holds the block to — accept or reject with the same
// error, the same String, the same value, rank class and pinned literals
// — and as the byte count TestExprAllocations compares the block against.
// Attribute references resolve through the production scope, so an ad's
// own expression attributes evaluate as blocks; the fuzzed expression
// itself is all tree.

type treeTokKind int

const (
	treeEOF treeTokKind = iota
	treeInt
	treeReal
	treeString
	treeIdent // identifiers and keyword literals (true/false/undefined/error)
	treeOp    // operators and punctuation
)

type treeToken struct {
	kind treeTokKind
	text string
	pos  int
}

type treeLexer struct {
	src string
	pos int
}

// next scans one token; the parser pulls them on demand, so no token
// slice is ever materialised. It is strict: unknown characters are errors
// so misquoted job requirements fail loudly at submit time, not at match
// time.
func (l *treeLexer) next() (treeToken, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return treeToken{kind: treeEOF, pos: l.pos}, nil
	}
	c := l.src[l.pos]
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	switch {
	case c >= '0' && c <= '9', c == '.' && l.peekDigit():
		return l.lexNumber(), nil
	case c == '"':
		return l.lexString()
	case isIdentStart(r):
		return l.lexIdent(), nil
	default:
		return l.lexOp()
	}
}

func (l *treeLexer) skipSpace() {
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

func (l *treeLexer) peekDigit() bool {
	return l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'
}

func (l *treeLexer) lexNumber() treeToken {
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
		return treeToken{kind: treeReal, text: text, pos: start}
	}
	return treeToken{kind: treeInt, text: text, pos: start}
}

func (l *treeLexer) lexString() (treeToken, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			return treeToken{kind: treeString, text: sb.String(), pos: start}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return treeToken{}, fmt.Errorf("classad: unterminated escape at %d", start)
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
				return treeToken{}, fmt.Errorf("classad: bad escape \\%c at %d", e, l.pos)
			}
			l.pos++
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return treeToken{}, fmt.Errorf("classad: unterminated string at %d", start)
}

func (l *treeLexer) lexIdent() treeToken {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.pos += size
	}
	return treeToken{kind: treeIdent, text: l.src[start:l.pos], pos: start}
}

var treeTwoCharOps = []string{"==", "!=", "<=", ">=", "&&", "||"}

func (l *treeLexer) lexOp() (treeToken, error) {
	start := l.pos
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		for _, op := range treeTwoCharOps {
			if two == op {
				l.pos += 2
				return treeToken{kind: treeOp, text: op, pos: start}, nil
			}
		}
	}
	c := l.src[l.pos]
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '!', '(', ')', ',', '.', '{', '}', '?', ':':
		l.pos++
		return treeToken{kind: treeOp, text: l.src[start:l.pos], pos: start}, nil
	}
	r, _ := utf8.DecodeRuneInString(l.src[start:])
	return treeToken{}, fmt.Errorf("classad: unexpected character %q at %d", r, start)
}

// treeExpr is a parsed ClassAd expression.
type treeExpr interface {
	// Eval evaluates the expression in the given scope.
	Eval(sc scope) Value
	// String renders the expression in parseable form.
	String() string
}

// treeParse parses a single ClassAd expression.
func treeParse(src string) (treeExpr, error) {
	p := treeParser{lx: treeLexer{src: src}}
	p.advance()
	e, err := p.parseTernary()
	if p.err != nil {
		return nil, p.err
	}
	if err != nil {
		return nil, err
	}
	if p.cur().kind != treeEOF {
		return nil, fmt.Errorf("classad: trailing input %q at %d", p.cur().text, p.cur().pos)
	}
	return e, nil
}

// treeParser pulls tokens from the lexer on demand with one token of
// look-ahead. The first lexical error is kept in err and the stream reads
// as ended from there, so treeParse reports it in preference to whatever the
// grammar made of the truncated input.
type treeParser struct {
	lx  treeLexer
	tok treeToken
	err error
}

func (p *treeParser) cur() treeToken { return p.tok }

func (p *treeParser) advance() {
	if p.err != nil {
		return
	}
	if p.tok, p.err = p.lx.next(); p.err != nil {
		p.tok = treeToken{kind: treeEOF, pos: p.lx.pos}
	}
}

func (p *treeParser) next() treeToken { t := p.tok; p.advance(); return t }

func (p *treeParser) eatOp(op string) bool {
	if p.cur().kind == treeOp && p.cur().text == op {
		p.advance()
		return true
	}
	return false
}

func (p *treeParser) expectOp(op string) error {
	if !p.eatOp(op) {
		return fmt.Errorf("classad: expected %q, found %q at %d", op, p.cur().text, p.cur().pos)
	}
	return nil
}

// Grammar (precedence climbing):
//
//	ternary := or ('?' ternary ':' ternary)?
//	or      := and ('||' and)*
//	and     := cmp ('&&' cmp)*
//	cmp     := add (('=='|'!='|'<'|'<='|'>'|'>=') add)?
//	add     := mul (('+'|'-') mul)*
//	mul     := unary (('*'|'/'|'%') unary)*
//	unary   := ('-'|'!') unary | primary
//	primary := literal | list | ident ( '(' args ')' | '.' ident )? | '(' ternary ')'
func (p *treeParser) parseTernary() (treeExpr, error) {
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.eatOp("?") {
		return cond, nil
	}
	thenE, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	elseE, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &treeTernary{cond: cond, then: thenE, els: elseE}, nil
}

func (p *treeParser) parseOr() (treeExpr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eatOp("||") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &treeBin{op: "||", l: left, r: right}
	}
	return left, nil
}

func (p *treeParser) parseAnd() (treeExpr, error) {
	left, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.eatOp("&&") {
		right, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		left = &treeBin{op: "&&", l: left, r: right}
	}
	return left, nil
}

var treeCmpOps = []string{"==", "!=", "<=", ">=", "<", ">"}

func (p *treeParser) parseCmp() (treeExpr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == treeOp {
		for _, op := range treeCmpOps {
			if p.cur().text == op {
				p.advance()
				right, err := p.parseAdd()
				if err != nil {
					return nil, err
				}
				return &treeBin{op: op, l: left, r: right}, nil
			}
		}
	}
	return left, nil
}

func (p *treeParser) parseAdd() (treeExpr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == treeOp && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.next().text
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &treeBin{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *treeParser) parseMul() (treeExpr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == treeOp && (p.cur().text == "*" || p.cur().text == "/" || p.cur().text == "%") {
		op := p.next().text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &treeBin{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *treeParser) parseUnary() (treeExpr, error) {
	if p.cur().kind == treeOp && (p.cur().text == "-" || p.cur().text == "!") {
		op := p.next().text
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &treeUnaryExpr{op: op, e: operand}, nil
	}
	return p.parsePrimary()
}

func (p *treeParser) parsePrimary() (treeExpr, error) {
	t := p.cur()
	switch t.kind {
	case treeInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("classad: bad integer %q at %d", t.text, t.pos)
		}
		return &treeLit{v: Int(n)}, nil
	case treeReal:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("classad: bad real %q at %d", t.text, t.pos)
		}
		return &treeLit{v: Real(f)}, nil
	case treeString:
		p.advance()
		return &treeLit{v: Str(t.text)}, nil
	case treeIdent:
		return p.parseIdent()
	case treeOp:
		switch t.text {
		case "(":
			p.advance()
			inner, err := p.parseTernary()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &treeParen{e: inner}, nil
		case "{":
			return p.parseList()
		}
	}
	return nil, fmt.Errorf("classad: unexpected %q at %d", t.text, t.pos)
}

func (p *treeParser) parseList() (treeExpr, error) {
	if err := p.expectOp("{"); err != nil {
		return nil, err
	}
	var elems []treeExpr
	if p.eatOp("}") {
		return &treeList{elems: elems}, nil
	}
	for {
		e, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		if p.eatOp("}") {
			return &treeList{elems: elems}, nil
		}
		if err := p.expectOp(","); err != nil {
			return nil, err
		}
	}
}

func (p *treeParser) parseIdent() (treeExpr, error) {
	t := p.next()
	lower := strings.ToLower(t.text)
	switch lower {
	case "true":
		return &treeLit{v: Bool(true)}, nil
	case "false":
		return &treeLit{v: Bool(false)}, nil
	case "undefined":
		return &treeLit{v: Undefined()}, nil
	case "error":
		return &treeLit{v: Errorf("error literal")}, nil
	}
	// Scope-qualified reference: MY.attr / TARGET.attr.
	if lower == "my" || lower == "target" {
		if p.eatOp(".") {
			attr := p.cur()
			if attr.kind != treeIdent {
				return nil, fmt.Errorf("classad: expected attribute after %s. at %d", t.text, attr.pos)
			}
			p.advance()
			return &treeAttr{name: attr.text, scope: lower}, nil
		}
	}
	// Function call.
	if p.cur().kind == treeOp && p.cur().text == "(" {
		p.advance()
		var args []treeExpr
		if !p.eatOp(")") {
			for {
				a, err := p.parseTernary()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.eatOp(")") {
					break
				}
				if err := p.expectOp(","); err != nil {
					return nil, err
				}
			}
		}
		if builtinIndex(lower) < 0 {
			return nil, fmt.Errorf("classad: unknown function %q at %d", t.text, t.pos)
		}
		return &treeCall{name: lower, args: args}, nil
	}
	return &treeAttr{name: t.text}, nil
}

// AST nodes.

type treeLit struct{ v Value }

func (e *treeLit) Eval(scope) Value { return e.v }
func (e *treeLit) String() string   { return e.v.String() }

type treeParen struct{ e treeExpr }

func (e *treeParen) Eval(sc scope) Value { return e.e.Eval(sc) }
func (e *treeParen) String() string      { return "(" + e.e.String() + ")" }

type treeList struct{ elems []treeExpr }

func (e *treeList) Eval(sc scope) Value {
	vs := make([]Value, len(e.elems))
	for i, el := range e.elems {
		vs[i] = el.Eval(sc)
	}
	return List(vs...)
}

func (e *treeList) String() string {
	parts := make([]string, len(e.elems))
	for i, el := range e.elems {
		parts[i] = el.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

type treeAttr struct {
	name  string // as written; lookups compare ignoring case
	scope string // "", "my", or "target"
}

func (e *treeAttr) Eval(sc scope) Value {
	in := scopeNone
	switch e.scope {
	case "my":
		in = scopeMy
	case "target":
		in = scopeTarget
	}
	return sc.resolve(e.name, in)
}

func (e *treeAttr) String() string {
	switch e.scope {
	case "my":
		return "MY." + e.name
	case "target":
		return "TARGET." + e.name
	}
	return e.name
}

type treeUnaryExpr struct {
	op string
	e  treeExpr
}

func (e *treeUnaryExpr) Eval(sc scope) Value { return treeUnary(e.op, e.e.Eval(sc)) }
func (e *treeUnaryExpr) String() string      { return e.op + e.e.String() }

type treeBin struct {
	op   string
	l, r treeExpr
}

func (e *treeBin) Eval(sc scope) Value {
	// && and || must short-circuit with three-valued logic.
	switch e.op {
	case "&&":
		return treeAnd(e.l, e.r, sc)
	case "||":
		return treeOr(e.l, e.r, sc)
	}
	return treeBinary(e.op, e.l.Eval(sc), e.r.Eval(sc))
}

func (e *treeBin) String() string {
	return e.l.String() + " " + e.op + " " + e.r.String()
}

type treeTernary struct {
	cond, then, els treeExpr
}

func (e *treeTernary) Eval(sc scope) Value {
	c := e.cond.Eval(sc)
	b, ok := c.BoolVal()
	if !ok {
		if c.IsUndefined() {
			return Undefined()
		}
		return Errorf("ternary condition is %s", c.Kind())
	}
	if b {
		return e.then.Eval(sc)
	}
	return e.els.Eval(sc)
}

func (e *treeTernary) String() string {
	return e.cond.String() + " ? " + e.then.String() + " : " + e.els.String()
}

type treeCall struct {
	name string
	args []treeExpr
}

func (e *treeCall) Eval(sc scope) Value {
	fn := builtins[builtinIndex(e.name)].fn
	args := make([]Value, len(e.args))
	for i, a := range e.args {
		args[i] = a.Eval(sc)
	}
	return fn(args)
}

func (e *treeCall) String() string {
	parts := make([]string, len(e.args))
	for i, a := range e.args {
		parts[i] = a.String()
	}
	return e.name + "(" + strings.Join(parts, ", ") + ")"
}

func treeUnary(op string, v Value) Value {
	if v.IsError() {
		return v
	}
	switch op {
	case "-":
		switch v.kind {
		case KindInt:
			return Int(-v.i())
		case KindReal:
			return Real(-v.r())
		case KindUndefined:
			return Undefined()
		}
		return Errorf("cannot negate %s", v.Kind())
	case "!":
		switch v.kind {
		case KindBool:
			return Bool(!v.b())
		case KindUndefined:
			return Undefined()
		}
		return Errorf("cannot logically negate %s", v.Kind())
	}
	return Errorf("unknown unary operator %q", op)
}

// treeAnd implements Condor's three-valued conjunction:
// false && anything == false (even error), undefined && true == undefined.
func treeAnd(le, re treeExpr, sc scope) Value {
	l := le.Eval(sc)
	if b, ok := l.BoolVal(); ok && !b {
		return Bool(false)
	}
	r := re.Eval(sc)
	if b, ok := r.BoolVal(); ok && !b {
		return Bool(false)
	}
	if l.IsError() {
		return l
	}
	if r.IsError() {
		return r
	}
	lb, lok := l.BoolVal()
	rb, rok := r.BoolVal()
	if lok && rok {
		return Bool(lb && rb)
	}
	if l.IsUndefined() || r.IsUndefined() {
		return Undefined()
	}
	return Errorf("non-boolean operand to &&")
}

// treeOr mirrors treeAnd: true || anything == true.
func treeOr(le, re treeExpr, sc scope) Value {
	l := le.Eval(sc)
	if b, ok := l.BoolVal(); ok && b {
		return Bool(true)
	}
	r := re.Eval(sc)
	if b, ok := r.BoolVal(); ok && b {
		return Bool(true)
	}
	if l.IsError() {
		return l
	}
	if r.IsError() {
		return r
	}
	lb, lok := l.BoolVal()
	rb, rok := r.BoolVal()
	if lok && rok {
		return Bool(lb || rb)
	}
	if l.IsUndefined() || r.IsUndefined() {
		return Undefined()
	}
	return Errorf("non-boolean operand to ||")
}

func treeBinary(op string, l, r Value) Value {
	if l.IsError() {
		return l
	}
	if r.IsError() {
		return r
	}
	switch op {
	case "+", "-", "*", "/", "%":
		return treeArith(op, l, r)
	case "==", "!=", "<", "<=", ">", ">=":
		return treeCompare(op, l, r)
	}
	return Errorf("unknown operator %q", op)
}

func treeArith(op string, l, r Value) Value {
	if l.IsUndefined() || r.IsUndefined() {
		return Undefined()
	}
	// String concatenation via "+" is a convenience extension.
	if op == "+" && l.kind == KindString && r.kind == KindString {
		return Str(l.str() + r.str())
	}
	// Integer arithmetic stays integral (Condor semantics).
	if l.kind == KindInt && r.kind == KindInt {
		switch op {
		case "+":
			return Int(l.i() + r.i())
		case "-":
			return Int(l.i() - r.i())
		case "*":
			return Int(l.i() * r.i())
		case "/":
			if r.i() == 0 {
				return Errorf("division by zero")
			}
			return Int(l.i() / r.i())
		case "%":
			if r.i() == 0 {
				return Errorf("modulo by zero")
			}
			return Int(l.i() % r.i())
		}
	}
	lf, lok := l.RealVal()
	rf, rok := r.RealVal()
	if !lok || !rok {
		return Errorf("arithmetic on %s and %s", l.Kind(), r.Kind())
	}
	switch op {
	case "+":
		return Real(lf + rf)
	case "-":
		return Real(lf - rf)
	case "*":
		return Real(lf * rf)
	case "/":
		if rf == 0 {
			return Errorf("division by zero")
		}
		return Real(lf / rf)
	case "%":
		if rf == 0 {
			return Errorf("modulo by zero")
		}
		return Real(math.Mod(lf, rf))
	}
	return Errorf("unknown arithmetic operator %q", op)
}

func treeCompare(op string, l, r Value) Value {
	if l.IsUndefined() || r.IsUndefined() {
		return Undefined()
	}
	// Strings compare case-insensitively, as in classic ClassAds.
	if l.kind == KindString && r.kind == KindString {
		return treeCmpResult(op, foldCompare(l.str(), r.str()))
	}
	if l.kind == KindBool && r.kind == KindBool {
		switch op {
		case "==":
			return Bool(l.b() == r.b())
		case "!=":
			return Bool(l.b() != r.b())
		}
		return Errorf("ordering comparison on booleans")
	}
	lf, lok := l.RealVal()
	rf, rok := r.RealVal()
	if !lok || !rok {
		return Errorf("comparison between %s and %s", l.Kind(), r.Kind())
	}
	switch {
	case lf < rf:
		return treeCmpResult(op, -1)
	case lf > rf:
		return treeCmpResult(op, 1)
	default:
		return treeCmpResult(op, 0)
	}
}

func treeCmpResult(op string, c int) Value {
	switch op {
	case "==":
		return Bool(c == 0)
	case "!=":
		return Bool(c != 0)
	case "<":
		return Bool(c < 0)
	case "<=":
		return Bool(c <= 0)
	case ">":
		return Bool(c > 0)
	case ">=":
		return Bool(c >= 0)
	}
	return Errorf("unknown comparison %q", op)
}

// treeTargetOnly reports whether e reads nothing but literals and TARGET.-scoped
// attributes, appending its canonical text (attribute names lower-cased)
// to key and the attributes' names to attrs.
func treeTargetOnly(e treeExpr, key *strings.Builder, attrs *[]string) bool {
	switch x := e.(type) {
	case *treeLit:
		// Tagged with the kind: Int(2) and Real(2) print alike but divide
		// differently.
		key.WriteByte('a' + byte(x.v.kind))
		key.WriteString(x.v.String())
		return true
	case *treeAttr:
		if x.scope != "target" {
			return false
		}
		key.WriteString("T.")
		treeWriteLower(key, x.name)
		*attrs = append(*attrs, x.name)
		return true
	case *treeParen:
		key.WriteByte('(')
		ok := treeTargetOnly(x.e, key, attrs)
		key.WriteByte(')')
		return ok
	case *treeUnaryExpr:
		key.WriteString(x.op)
		return treeTargetOnly(x.e, key, attrs)
	case *treeBin:
		if !treeTargetOnly(x.l, key, attrs) {
			return false
		}
		key.WriteByte(' ')
		key.WriteString(x.op)
		key.WriteByte(' ')
		return treeTargetOnly(x.r, key, attrs)
	}
	return false
}

// treeTargetStringEq walks &&-conjuncts looking for attr == "literal": the
// tree's Ad.ReqStringConstraint, which Matcher.Pins replaced.
func (a *Ad) treeTargetStringEq(e treeExpr, attr string) (string, bool) {
	switch x := e.(type) {
	case *treeParen:
		return a.treeTargetStringEq(x.e, attr)
	case *treeBin:
		switch x.op {
		case "&&":
			if s, ok := a.treeTargetStringEq(x.l, attr); ok {
				return s, true
			}
			return a.treeTargetStringEq(x.r, attr)
		case "==":
			if s, ok := a.treeEqLiteral(x.l, x.r, attr); ok {
				return s, true
			}
			return a.treeEqLiteral(x.r, x.l, attr)
		}
	}
	return "", false
}

// treeEqLiteral matches the (attrRef, stringLiteral) shape. MY.attr refers to
// the job's own attributes, so only TARGET references — or unqualified
// ones the job itself cannot satisfy (unqualified names resolve in self
// first) — constrain the machine.
func (a *Ad) treeEqLiteral(ref, lit treeExpr, attr string) (string, bool) {
	ae, ok := ref.(*treeAttr)
	if !ok || foldCompare(ae.name, attr) != 0 || ae.scope == "my" {
		return "", false
	}
	if ae.scope == "" && a.Has(ae.name) {
		return "", false
	}
	le, ok := lit.(*treeLit)
	if !ok {
		return "", false
	}
	s, ok := le.v.StringVal()
	if !ok {
		return "", false
	}
	return strings.ToLower(s), true
}

// treeWriteLower appends strings.ToLower(s) to b, allocating nothing for an
// ASCII name.
func treeWriteLower(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			b.WriteString(strings.ToLower(s[i:]))
			return
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
}

// treeRankClass is Matcher.RankClass of an ad whose Rank is e.
func treeRankClass(e treeExpr) (string, bool) {
	if _, literal := e.(*treeLit); literal {
		return "", true
	}
	var key strings.Builder
	var attrs []string
	if !treeTargetOnly(e, &key, &attrs) {
		return "", false
	}
	if len(attrs) == 0 {
		return "", true
	}
	return key.String(), true
}
