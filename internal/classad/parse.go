package classad

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is a parsed ClassAd expression.
type Expr interface {
	// Eval evaluates the expression in the given scope.
	Eval(sc scope) Value
	// String renders the expression in parseable form.
	String() string
}

// Parse parses a single ClassAd expression.
func Parse(src string) (Expr, error) {
	p := parser{lx: lexer{src: src}}
	p.advance()
	e, err := p.parseTernary()
	if p.err != nil {
		return nil, p.err
	}
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("classad: trailing input %q at %d", p.cur().text, p.cur().pos)
	}
	return e, nil
}

// parser pulls tokens from the lexer on demand with one token of
// look-ahead. The first lexical error is kept in err and the stream reads
// as ended from there, so Parse reports it in preference to whatever the
// grammar made of the truncated input.
type parser struct {
	lx  lexer
	tok token
	err error
}

func (p *parser) cur() token { return p.tok }

func (p *parser) advance() {
	if p.err != nil {
		return
	}
	if p.tok, p.err = p.lx.next(); p.err != nil {
		p.tok = token{kind: tokEOF, pos: p.lx.pos}
	}
}

func (p *parser) next() token { t := p.tok; p.advance(); return t }

func (p *parser) eatOp(op string) bool {
	if p.cur().kind == tokOp && p.cur().text == op {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
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
func (p *parser) parseTernary() (Expr, error) {
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
	return &ternaryExpr{cond: cond, then: thenE, els: elseE}, nil
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eatOp("||") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binExpr{op: "||", l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.eatOp("&&") {
		right, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		left = &binExpr{op: "&&", l: left, r: right}
	}
	return left, nil
}

var cmpOps = []string{"==", "!=", "<=", ">=", "<", ">"}

func (p *parser) parseCmp() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokOp {
		for _, op := range cmpOps {
			if p.cur().text == op {
				p.advance()
				right, err := p.parseAdd()
				if err != nil {
					return nil, err
				}
				return &binExpr{op: op, l: left, r: right}, nil
			}
		}
	}
	return left, nil
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOp && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.next().text
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &binExpr{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOp && (p.cur().text == "*" || p.cur().text == "/" || p.cur().text == "%") {
		op := p.next().text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binExpr{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.cur().kind == tokOp && (p.cur().text == "-" || p.cur().text == "!") {
		op := p.next().text
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: op, e: operand}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("classad: bad integer %q at %d", t.text, t.pos)
		}
		return &litExpr{v: Int(n)}, nil
	case tokReal:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("classad: bad real %q at %d", t.text, t.pos)
		}
		return &litExpr{v: Real(f)}, nil
	case tokString:
		p.advance()
		return &litExpr{v: Str(t.text)}, nil
	case tokIdent:
		return p.parseIdent()
	case tokOp:
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
			return &parenExpr{e: inner}, nil
		case "{":
			return p.parseList()
		}
	}
	return nil, fmt.Errorf("classad: unexpected %q at %d", t.text, t.pos)
}

func (p *parser) parseList() (Expr, error) {
	if err := p.expectOp("{"); err != nil {
		return nil, err
	}
	var elems []Expr
	if p.eatOp("}") {
		return &listExpr{elems: elems}, nil
	}
	for {
		e, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		if p.eatOp("}") {
			return &listExpr{elems: elems}, nil
		}
		if err := p.expectOp(","); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseIdent() (Expr, error) {
	t := p.next()
	lower := strings.ToLower(t.text)
	switch lower {
	case "true":
		return &litExpr{v: Bool(true)}, nil
	case "false":
		return &litExpr{v: Bool(false)}, nil
	case "undefined":
		return &litExpr{v: Undefined()}, nil
	case "error":
		return &litExpr{v: Errorf("error literal")}, nil
	}
	// Scope-qualified reference: MY.attr / TARGET.attr.
	if lower == "my" || lower == "target" {
		if p.eatOp(".") {
			attr := p.cur()
			if attr.kind != tokIdent {
				return nil, fmt.Errorf("classad: expected attribute after %s. at %d", t.text, attr.pos)
			}
			p.advance()
			return &attrExpr{name: attr.text, scope: lower}, nil
		}
	}
	// Function call.
	if p.cur().kind == tokOp && p.cur().text == "(" {
		p.advance()
		var args []Expr
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
		if _, ok := builtins[lower]; !ok {
			return nil, fmt.Errorf("classad: unknown function %q at %d", t.text, t.pos)
		}
		return &callExpr{name: lower, args: args}, nil
	}
	return &attrExpr{name: t.text}, nil
}

// AST nodes.

type litExpr struct{ v Value }

func (e *litExpr) Eval(scope) Value { return e.v }
func (e *litExpr) String() string   { return e.v.String() }

type parenExpr struct{ e Expr }

func (e *parenExpr) Eval(sc scope) Value { return e.e.Eval(sc) }
func (e *parenExpr) String() string      { return "(" + e.e.String() + ")" }

type listExpr struct{ elems []Expr }

func (e *listExpr) Eval(sc scope) Value {
	vs := make([]Value, len(e.elems))
	for i, el := range e.elems {
		vs[i] = el.Eval(sc)
	}
	return List(vs...)
}

func (e *listExpr) String() string {
	parts := make([]string, len(e.elems))
	for i, el := range e.elems {
		parts[i] = el.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

type attrExpr struct {
	name  string // as written; lookups compare ignoring case
	scope string // "", "my", or "target"
}

func (e *attrExpr) Eval(sc scope) Value { return sc.resolve(e.name, e.scope) }

func (e *attrExpr) String() string {
	switch e.scope {
	case "my":
		return "MY." + e.name
	case "target":
		return "TARGET." + e.name
	}
	return e.name
}

type unaryExpr struct {
	op string
	e  Expr
}

func (e *unaryExpr) Eval(sc scope) Value { return evalUnary(e.op, e.e.Eval(sc)) }
func (e *unaryExpr) String() string      { return e.op + e.e.String() }

type binExpr struct {
	op   string
	l, r Expr
}

func (e *binExpr) Eval(sc scope) Value {
	// && and || must short-circuit with three-valued logic.
	switch e.op {
	case "&&":
		return evalAnd(e.l, e.r, sc)
	case "||":
		return evalOr(e.l, e.r, sc)
	}
	return evalBinary(e.op, e.l.Eval(sc), e.r.Eval(sc))
}

func (e *binExpr) String() string {
	return e.l.String() + " " + e.op + " " + e.r.String()
}

type ternaryExpr struct {
	cond, then, els Expr
}

func (e *ternaryExpr) Eval(sc scope) Value {
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

func (e *ternaryExpr) String() string {
	return e.cond.String() + " ? " + e.then.String() + " : " + e.els.String()
}

type callExpr struct {
	name string
	args []Expr
}

func (e *callExpr) Eval(sc scope) Value {
	fn := builtins[e.name]
	args := make([]Value, len(e.args))
	for i, a := range e.args {
		args[i] = a.Eval(sc)
	}
	return fn(args)
}

func (e *callExpr) String() string {
	parts := make([]string, len(e.args))
	for i, a := range e.args {
		parts[i] = a.String()
	}
	return e.name + "(" + strings.Join(parts, ", ") + ")"
}
