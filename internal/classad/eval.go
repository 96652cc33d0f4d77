package classad

import (
	"math"
	"strings"
)

// scope carries the self/target ads during evaluation, plus a depth guard
// against mutually recursive attribute definitions. It is three words,
// passed by value: no evaluation, nested or not, allocates one.
type scope struct {
	self   *Ad
	target *Ad
	depth  int
}

const maxEvalDepth = 64

// resolve looks up an attribute reference, name with its foldKey.
// Unqualified names search self then target; MY restricts to self; TARGET
// to target.
func (sc scope) resolve(name string, key uint32, in uint8) Value {
	if sc.depth >= maxEvalDepth {
		return Errorf("attribute recursion limit reached at %q", strings.ToLower(name))
	}
	switch in {
	case scopeMy:
		v, _ := sc.lookupIn(sc.self, sc.target, name, key)
		return v
	case scopeTarget:
		v, _ := sc.lookupIn(sc.target, sc.self, name, key)
		return v
	default:
		if v, ok := sc.lookupIn(sc.self, sc.target, name, key); ok {
			return v
		}
		v, _ := sc.lookupIn(sc.target, sc.self, name, key)
		return v
	}
}

// lookupIn fetches name from ad; expression attributes evaluate with ad as
// self and other as target, one depth level down.
func (sc scope) lookupIn(ad, other *Ad, name string, key uint32) (Value, bool) {
	if ad == nil {
		return Undefined(), false
	}
	i := ad.index(name, key)
	if i < 0 {
		return Undefined(), false
	}
	return ad.attrs[i].eval(scope{self: ad, target: other, depth: sc.depth + 1}), true
}

// Eval evaluates the expression in the given scope.
func (e *Expr) Eval(sc scope) Value { return eval(e.nodes(), 0, sc) }

// eval evaluates the subtree at ns[i]: by its opcode, with a node's
// children at i+1 and its elder siblings' ends.
func eval(ns []node, i int, sc scope) Value {
	n := &ns[i]
	switch n.op {
	case opLit:
		return n.lit()
	case opAttr:
		return sc.resolve(n.name(), n.key(), n.aux)
	case opParen:
		return eval(ns, i+1, sc)
	case opNeg, opNot:
		return evalUnary(n.op, eval(ns, i+1, sc))
	case opAnd:
		return evalAnd(ns, i+1, sc)
	case opOr:
		return evalOr(ns, i+1, sc)
	case opCond:
		return evalCond(ns, i+1, sc)
	case opList, opCall:
		vs := make([]Value, 0, countChildren(ns, i))
		for c := i + 1; c < int(n.end); c = int(ns[c].end) {
			vs = append(vs, eval(ns, c, sc))
		}
		if n.op == opCall {
			return builtins[n.aux].fn(vs)
		}
		return List(vs...)
	}
	l := i + 1
	return evalBinary(n.op, eval(ns, l, sc), eval(ns, int(ns[l].end), sc))
}

func countChildren(ns []node, i int) int {
	k := 0
	for c := i + 1; c < int(ns[i].end); c = int(ns[c].end) {
		k++
	}
	return k
}

// evalCond evaluates c ? a : b, whose condition is at ns[c].
func evalCond(ns []node, c int, sc scope) Value {
	v := eval(ns, c, sc)
	b, ok := v.BoolVal()
	if !ok {
		if v.IsUndefined() {
			return Undefined()
		}
		return Errorf("ternary condition is %s", v.Kind())
	}
	a := int(ns[c].end)
	if b {
		return eval(ns, a, sc)
	}
	return eval(ns, int(ns[a].end), sc)
}

func evalUnary(op opcode, v Value) Value {
	if v.IsError() {
		return v
	}
	if op == opNeg {
		switch v.kind {
		case KindInt:
			return Int(-v.i())
		case KindReal:
			return Real(-v.r())
		case KindUndefined:
			return Undefined()
		}
		return Errorf("cannot negate %s", v.Kind())
	}
	switch v.kind {
	case KindBool:
		return Bool(!v.b())
	case KindUndefined:
		return Undefined()
	}
	return Errorf("cannot logically negate %s", v.Kind())
}

// evalAnd implements Condor's three-valued conjunction:
// false && anything == false (even error), undefined && true == undefined.
// Its left operand is at ns[i].
func evalAnd(ns []node, i int, sc scope) Value {
	l := eval(ns, i, sc)
	if b, ok := l.BoolVal(); ok && !b {
		return Bool(false)
	}
	r := eval(ns, int(ns[i].end), sc)
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

// evalOr mirrors evalAnd: true || anything == true.
func evalOr(ns []node, i int, sc scope) Value {
	l := eval(ns, i, sc)
	if b, ok := l.BoolVal(); ok && b {
		return Bool(true)
	}
	r := eval(ns, int(ns[i].end), sc)
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

func evalBinary(op opcode, l, r Value) Value {
	if l.IsError() {
		return l
	}
	if r.IsError() {
		return r
	}
	if op >= opAdd {
		return evalArith(op, l, r)
	}
	return evalCompare(op, l, r)
}

func evalArith(op opcode, l, r Value) Value {
	if l.IsUndefined() || r.IsUndefined() {
		return Undefined()
	}
	// String concatenation via "+" is a convenience extension.
	if op == opAdd && l.kind == KindString && r.kind == KindString {
		return Str(l.str() + r.str())
	}
	// Integer arithmetic stays integral (Condor semantics).
	if l.kind == KindInt && r.kind == KindInt {
		switch op {
		case opAdd:
			return Int(l.i() + r.i())
		case opSub:
			return Int(l.i() - r.i())
		case opMul:
			return Int(l.i() * r.i())
		case opDiv:
			if r.i() == 0 {
				return Errorf("division by zero")
			}
			return Int(l.i() / r.i())
		case opMod:
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
	case opAdd:
		return Real(lf + rf)
	case opSub:
		return Real(lf - rf)
	case opMul:
		return Real(lf * rf)
	case opDiv:
		if rf == 0 {
			return Errorf("division by zero")
		}
		return Real(lf / rf)
	}
	if rf == 0 { // opMod
		return Errorf("modulo by zero")
	}
	return Real(math.Mod(lf, rf))
}

func evalCompare(op opcode, l, r Value) Value {
	if l.IsUndefined() || r.IsUndefined() {
		return Undefined()
	}
	// Strings compare case-insensitively, as in classic ClassAds.
	if l.kind == KindString && r.kind == KindString {
		return cmpResult(op, foldCompare(l.str(), r.str()))
	}
	if l.kind == KindBool && r.kind == KindBool {
		switch op {
		case opEq:
			return Bool(l.b() == r.b())
		case opNe:
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
		return cmpResult(op, -1)
	case lf > rf:
		return cmpResult(op, 1)
	default:
		return cmpResult(op, 0)
	}
}

func cmpResult(op opcode, c int) Value {
	switch op {
	case opEq:
		return Bool(c == 0)
	case opNe:
		return Bool(c != 0)
	case opLt:
		return Bool(c < 0)
	case opLe:
		return Bool(c <= 0)
	case opGt:
		return Bool(c > 0)
	}
	return Bool(c >= 0)
}
