package classad

// Go converts the value back to a plain Go value (nil for undefined,
// error values become strings prefixed "error:").
func (v Value) Go() any {
	switch v.kind {
	case KindUndefined:
		return nil
	case KindError:
		return "error:" + v.str()
	case KindBool:
		return v.b()
	case KindInt:
		return int(v.i())
	case KindReal:
		return v.r()
	case KindString:
		return v.str()
	case KindList:
		l := v.list()
		out := make([]any, len(l))
		for i, e := range l {
			out[i] = e.Go()
		}
		return out
	}
	return nil
}

// Lookup evaluates the attribute in the context of this ad alone: Get by
// a name hashed at each call.
func (a *Ad) Lookup(name string) Value { return a.EvalAttr(name, nil) }

// EvalAttr evaluates attribute name with target as the TARGET scope.
func (a *Ad) EvalAttr(name string, target *Ad) Value {
	i := a.find(name)
	if i < 0 {
		return Undefined()
	}
	return a.attrs[i].eval(scope{self: a, target: target})
}

// Float, Int, Str and Bool fetch an attribute of their kind, def when the
// ad has none.
func (a *Ad) Float(name string, def float64) float64 {
	if f, ok := a.Lookup(name).RealVal(); ok {
		return f
	}
	return def
}

func (a *Ad) Int(name string, def int64) int64 {
	if n, ok := a.Lookup(name).IntVal(); ok {
		return n
	}
	return def
}

func (a *Ad) Str(name, def string) string {
	if s, ok := a.Lookup(name).StringVal(); ok {
		return s
	}
	return def
}

func (a *Ad) Bool(name string, def bool) bool {
	if b, ok := a.Lookup(name).BoolVal(); ok {
		return b
	}
	return def
}

// Match reports whether left.Requirements is satisfied against right and
// vice versa, evaluating each attribute afresh: the interpreted match the
// compiled Matcher is held to. A missing Requirements attribute counts as
// satisfied.
func Match(left, right *Ad) bool {
	return halfMatch(left, right) && halfMatch(right, left)
}

// halfMatch evaluates self's Requirements with target in scope.
func halfMatch(self, target *Ad) bool {
	i := self.find(attrRequirements.text)
	if i < 0 {
		return true
	}
	b, ok := self.attrs[i].eval(scope{self: self, target: target}).BoolVal()
	return ok && b
}

// Rank evaluates self's Rank expression against target, returning 0.0 when
// absent or non-numeric, NaN included (Condor semantics).
func Rank(self, target *Ad) float64 {
	if f, ok := self.EvalAttr(attrRank.text, target).RealVal(); ok && f == f {
		return f
	}
	return 0
}

// sharedLen is the number of texts the shared-block table holds.
func sharedLen() int {
	shared.Lock()
	defer shared.Unlock()
	return len(shared.m)
}

// textOf returns the texts an ad's values point at: every string
// literal, stored as a literal or inside an expression, and every
// reference name of its expressions.
func (a *Ad) textOf() []string {
	var out []string
	add := func(v Value) {
		if v.kind == KindString {
			out = append(out, v.str())
		}
	}
	for i := range a.attrs {
		e := &a.attrs[i]
		if e.expr == nil {
			add(e.val)
			continue
		}
		for _, n := range e.expr.nodes() {
			switch n.op {
			case opAttr:
				out = append(out, n.name())
			case opLit:
				add(n.lit())
			}
		}
	}
	return out
}
