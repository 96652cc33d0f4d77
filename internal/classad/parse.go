package classad

import (
	"fmt"
	"strconv"
	"unsafe"
)

// Expr is a parsed ClassAd expression. Its nodes sit in one block,
// allocated to size once the parse is done, in prefix order: an *Expr is
// the block's first node, the root, and each node's children follow it,
// the first at the next index and each later one at its elder sibling's
// end. Operators are codes, names and escape-free string literals are
// substrings of the source, and a literal is its Value's payload: a
// two-conjunct Requirements is one 168-byte allocation.
type Expr node

// node is one operator, reference or literal of an expression.
type node struct {
	op opcode
	// aux is a literal's Kind, a reference's scope, or a call's builtin.
	aux uint8
	// end is the index, in the block, just past the node's subtree:
	// its next sibling, or its parent's end. While the parser builds the
	// expression in postfix order it is instead the index of the subtree's
	// first node.
	end uint32
	// x and p are a literal's Value payload (Value.n, Value.p), or a
	// reference's name, as its bytes and, in x, its length in the lower
	// half and its foldKey in the upper.
	x uint64
	p unsafe.Pointer
}

// opcode names what a node computes, and which operator or punctuation
// mark a token is.
type opcode uint8

const (
	opLit opcode = iota + 1
	opAttr
	opParen
	opList
	opCall
	opCond // c ? a : b
	opNeg
	opNot
	opOr
	opAnd
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAdd
	opSub
	opMul
	opDiv
	opMod
	// Punctuation: tokens only, never nodes.
	pLParen
	pRParen
	pComma
	pDot
	pLBrace
	pRBrace
	pQuestion
	pColon
)

// opText spells each operator and punctuation mark; opNeg is the unary
// minus.
var opText = [...]string{
	opNeg: "-", opNot: "!", opOr: "||", opAnd: "&&",
	opEq: "==", opNe: "!=", opLt: "<", opLe: "<=", opGt: ">", opGe: ">=",
	opAdd: "+", opSub: "-", opMul: "*", opDiv: "/", opMod: "%",
	pLParen: "(", pRParen: ")", pComma: ",", pDot: ".", pLBrace: "{", pRBrace: "}", pQuestion: "?", pColon: ":",
}

// Scopes of an attribute reference.
const (
	scopeNone   uint8 = iota // unqualified: self, then target
	scopeMy                  // MY.
	scopeTarget              // TARGET.
)

// errorLiteral is the value of the keyword error.
var errorLiteral = Errorf("error literal")

// Parse parses a single ClassAd expression.
func Parse(src string) (*Expr, error) {
	var p parser
	p.lx.src = src
	p.advance()
	_, err := p.parseTernary()
	if p.err != nil {
		return nil, p.err
	}
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("classad: trailing input %q at %d", p.tok.text, p.tok.pos)
	}
	block := make([]node, p.n)
	p.place(block, p.n-1, 0)
	return (*Expr)(&block[0]), nil
}

// place writes the subtree whose root is the postfix node i to block in
// prefix order from index at. The children of a postfix node are the
// subtrees packed, eldest first, between its first node and itself; each
// keeps its offset within the parent's span.
func (p *parser) place(block []node, i, at int) {
	n := p.post(i)
	first := int(n.end)
	block[at] = *n
	block[at].end = uint32(at + i - first + 1)
	for c := i - 1; c >= first; c = int(p.post(c).end) - 1 {
		p.place(block, c, at+1+int(p.post(c).end)-first)
	}
}

// nodes returns the expression's block.
func (e *Expr) nodes() []node { return unsafe.Slice((*node)(e), e.end) }

// lit returns a literal node's value.
func (n *node) lit() Value { return Value{kind: Kind(n.aux), n: n.x, p: n.p} }

// name returns a reference node's attribute name, as written.
func (n *node) name() string { return unsafe.String((*byte)(n.p), int(uint32(n.x))) }

// key returns a reference node's foldKey.
func (n *node) key() uint32 { return uint32(n.x >> 32) }

func litNode(v Value) node {
	return node{op: opLit, aux: uint8(v.kind), x: v.n, p: v.p}
}

// parser pulls tokens from the lexer on demand with one token of
// look-ahead, and builds the expression in postfix order (a node is
// emitted after its children, so a subtree is the run from its first node
// to its root). The first lexical error is kept in err and the stream
// reads as ended from there, so Parse reports it in preference to
// whatever the grammar made of the truncated input.
type parser struct {
	lx  lexer
	tok token
	err error
	// n nodes are built: the first in head, the rest of a long expression
	// in tail. head is an array, not a slice, and nothing points into it
	// from outside: it stays in the parser, on Parse's stack, so the
	// block is an expression's one allocation.
	n    int
	head [16]node
	tail []node
}

// post returns the postfix node i.
func (p *parser) post(i int) *node {
	if i < len(p.head) {
		return &p.head[i]
	}
	return &p.tail[i-len(p.head)]
}

func (p *parser) advance() {
	if p.err != nil {
		return
	}
	if p.err = p.lx.scan(&p.tok); p.err != nil {
		p.tok = token{kind: tokEOF, pos: p.lx.pos}
	}
}

// emit appends n as the root of the subtree that starts at first.
func (p *parser) emit(n node, first int) int {
	n.end = uint32(first)
	if p.n < len(p.head) {
		p.head[p.n] = n
	} else {
		p.tail = append(p.tail, n)
	}
	p.n++
	return first
}

func (p *parser) isOp(op opcode) bool { return p.tok.kind == tokOp && p.tok.op == op }

func (p *parser) eatOp(op opcode) bool {
	if p.isOp(op) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op opcode) error {
	if !p.eatOp(op) {
		return fmt.Errorf("classad: expected %q, found %q at %d", opText[op], p.tok.text, p.tok.pos)
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
//
// Each rule returns the index of the first node of what it parsed.
func (p *parser) parseTernary() (int, error) {
	first, err := p.parseBinary(levelOr)
	if err != nil || !p.eatOp(pQuestion) {
		return first, err
	}
	if _, err := p.parseTernary(); err != nil {
		return 0, err
	}
	if err := p.expectOp(pColon); err != nil {
		return 0, err
	}
	if _, err := p.parseTernary(); err != nil {
		return 0, err
	}
	return p.emit(node{op: opCond}, first), nil
}

// Binding levels of the binary operators, loosest first.
const (
	levelOr = iota + 1
	levelAnd
	levelCmp
	levelAdd
	levelMul
)

// level returns the binding level of a binary operator, 0 for any other
// token.
func (p *parser) level() int {
	if p.tok.kind != tokOp {
		return 0
	}
	switch op := p.tok.op; {
	case op == opOr:
		return levelOr
	case op == opAnd:
		return levelAnd
	case op >= opEq && op <= opGe:
		return levelCmp
	case op == opAdd || op == opSub:
		return levelAdd
	case op == opMul || op == opDiv || op == opMod:
		return levelMul
	}
	return 0
}

// parseBinary parses operand (op operand)* for the operators of one
// level, folding to the left; an operand is the next level up. A level
// binds at most one comparison: a < b < c is an error.
func (p *parser) parseBinary(level int) (int, error) {
	operand := func() (int, error) {
		if level == levelMul {
			return p.parseUnary()
		}
		return p.parseBinary(level + 1)
	}
	first, err := operand()
	if err != nil {
		return 0, err
	}
	for p.level() == level {
		op := p.tok.op
		p.advance()
		if _, err := operand(); err != nil {
			return 0, err
		}
		p.emit(node{op: op}, first)
		if level == levelCmp {
			break
		}
	}
	return first, nil
}

func (p *parser) parseUnary() (int, error) {
	if op := p.tok.op; p.tok.kind == tokOp && (op == opSub || op == opNot) {
		p.advance()
		first, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		if op == opSub {
			op = opNeg
		}
		return p.emit(node{op: op}, first), nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (int, error) {
	t := p.tok
	first := p.n
	switch t.kind {
	case tokInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("classad: bad integer %q at %d", t.text, t.pos)
		}
		return p.emit(litNode(Int(n)), first), nil
	case tokReal:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return 0, fmt.Errorf("classad: bad real %q at %d", t.text, t.pos)
		}
		return p.emit(litNode(Real(f)), first), nil
	case tokString:
		p.advance()
		return p.emit(litNode(Str(t.text)), first), nil
	case tokIdent:
		return p.parseIdent()
	case tokOp:
		switch t.op {
		case pLParen:
			p.advance()
			if _, err := p.parseTernary(); err != nil {
				return 0, err
			}
			if err := p.expectOp(pRParen); err != nil {
				return 0, err
			}
			return p.emit(node{op: opParen}, first), nil
		case pLBrace:
			return p.parseList()
		}
	}
	return 0, fmt.Errorf("classad: unexpected %q at %d", t.text, t.pos)
}

func (p *parser) parseList() (int, error) {
	first := p.n
	if err := p.expectOp(pLBrace); err != nil {
		return 0, err
	}
	if err := p.parseArgs(pRBrace); err != nil {
		return 0, err
	}
	return p.emit(node{op: opList}, first), nil
}

// parseArgs parses a comma-separated list of expressions up to and
// including its closing mark.
func (p *parser) parseArgs(closing opcode) error {
	if p.eatOp(closing) {
		return nil
	}
	for {
		if _, err := p.parseTernary(); err != nil {
			return err
		}
		if p.eatOp(closing) {
			return nil
		}
		if err := p.expectOp(pComma); err != nil {
			return err
		}
	}
}

func (p *parser) parseIdent() (int, error) {
	t := p.tok
	first := p.n
	p.advance()
	switch {
	case foldCompare(t.text, "true") == 0:
		return p.emit(litNode(Bool(true)), first), nil
	case foldCompare(t.text, "false") == 0:
		return p.emit(litNode(Bool(false)), first), nil
	case foldCompare(t.text, "undefined") == 0:
		return p.emit(litNode(Undefined()), first), nil
	case foldCompare(t.text, "error") == 0:
		return p.emit(litNode(errorLiteral), first), nil
	}
	// Scope-qualified reference: MY.attr / TARGET.attr.
	scope := scopeNone
	if foldCompare(t.text, "my") == 0 {
		scope = scopeMy
	} else if foldCompare(t.text, "target") == 0 {
		scope = scopeTarget
	}
	if scope != scopeNone && p.eatOp(pDot) {
		attr := p.tok
		if attr.kind != tokIdent {
			return 0, fmt.Errorf("classad: expected attribute after %s. at %d", t.text, attr.pos)
		}
		p.advance()
		return p.emit(refNode(attr.text, scope), first), nil
	}
	// Function call.
	if p.eatOp(pLParen) {
		if err := p.parseArgs(pRParen); err != nil {
			return 0, err
		}
		fn := builtinIndex(t.text)
		if fn < 0 {
			return 0, fmt.Errorf("classad: unknown function %q at %d", t.text, t.pos)
		}
		return p.emit(node{op: opCall, aux: uint8(fn)}, first), nil
	}
	return p.emit(refNode(t.text, scopeNone), first), nil
}

func refNode(name string, scope uint8) node {
	x := uint64(len(name)) | uint64(foldKey(name))<<32
	return node{op: opAttr, aux: scope, x: x, p: unsafe.Pointer(unsafe.StringData(name))}
}

// String renders the expression in parseable form.
func (e *Expr) String() string {
	return string(appendNode(nil, e.nodes(), 0))
}

// appendNode appends the text of the subtree at ns[i] to b.
func appendNode(b []byte, ns []node, i int) []byte {
	n := &ns[i]
	switch n.op {
	case opLit:
		return n.lit().appendTo(b)
	case opAttr:
		switch n.aux {
		case scopeMy:
			b = append(b, "MY."...)
		case scopeTarget:
			b = append(b, "TARGET."...)
		}
		return append(b, n.name()...)
	case opParen:
		b = append(b, '(')
		return append(appendNode(b, ns, i+1), ')')
	case opList:
		b = append(b, '{')
		return append(appendChildren(b, ns, i), '}')
	case opCall:
		b = append(b, builtins[n.aux].name...)
		b = append(b, '(')
		return append(appendChildren(b, ns, i), ')')
	case opNeg, opNot:
		return appendNode(append(b, opText[n.op]...), ns, i+1)
	case opCond:
		c := i + 1
		a := int(ns[c].end)
		b = append(appendNode(b, ns, c), " ? "...)
		b = append(appendNode(b, ns, a), " : "...)
		return appendNode(b, ns, int(ns[a].end))
	}
	l := i + 1
	b = append(appendNode(b, ns, l), ' ')
	b = append(append(b, opText[n.op]...), ' ')
	return appendNode(b, ns, int(ns[l].end))
}

// appendChildren appends the text of ns[i]'s children, comma-separated.
func appendChildren(b []byte, ns []node, i int) []byte {
	for c := i + 1; c < int(ns[i].end); c = int(ns[c].end) {
		if c > i+1 {
			b = append(b, ", "...)
		}
		b = appendNode(b, ns, c)
	}
	return b
}
