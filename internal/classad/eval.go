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

// resolve looks up an attribute reference. Unqualified names search self
// then target; MY restricts to self; TARGET to target.
func (sc scope) resolve(name, scopeName string) Value {
	if sc.depth >= maxEvalDepth {
		return Errorf("attribute recursion limit reached at %q", strings.ToLower(name))
	}
	switch scopeName {
	case "my":
		v, _ := sc.lookupIn(sc.self, sc.target, name)
		return v
	case "target":
		v, _ := sc.lookupIn(sc.target, sc.self, name)
		return v
	default:
		if v, ok := sc.lookupIn(sc.self, sc.target, name); ok {
			return v
		}
		v, _ := sc.lookupIn(sc.target, sc.self, name)
		return v
	}
}

// lookupIn fetches name from ad; expression attributes evaluate with ad as
// self and other as target, one depth level down.
func (sc scope) lookupIn(ad, other *Ad, name string) (Value, bool) {
	if ad == nil {
		return Undefined(), false
	}
	i := ad.find(name)
	if i < 0 {
		return Undefined(), false
	}
	return ad.attrs[i].eval(scope{self: ad, target: other, depth: sc.depth + 1}), true
}

func evalUnary(op string, v Value) Value {
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

// evalAnd implements Condor's three-valued conjunction:
// false && anything == false (even error), undefined && true == undefined.
func evalAnd(le, re Expr, sc scope) Value {
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

// evalOr mirrors evalAnd: true || anything == true.
func evalOr(le, re Expr, sc scope) Value {
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

func evalBinary(op string, l, r Value) Value {
	if l.IsError() {
		return l
	}
	if r.IsError() {
		return r
	}
	switch op {
	case "+", "-", "*", "/", "%":
		return evalArith(op, l, r)
	case "==", "!=", "<", "<=", ">", ">=":
		return evalCompare(op, l, r)
	}
	return Errorf("unknown operator %q", op)
}

func evalArith(op string, l, r Value) Value {
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

func evalCompare(op string, l, r Value) Value {
	if l.IsUndefined() || r.IsUndefined() {
		return Undefined()
	}
	// Strings compare case-insensitively, as in classic ClassAds.
	if l.kind == KindString && r.kind == KindString {
		return cmpResult(op, foldCompare(l.str(), r.str()))
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
		return cmpResult(op, -1)
	case lf > rf:
		return cmpResult(op, 1)
	default:
		return cmpResult(op, 0)
	}
}

func cmpResult(op string, c int) Value {
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
