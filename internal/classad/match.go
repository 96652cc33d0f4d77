package classad

import (
	"strings"
	"unicode/utf8"
)

// This file is the matchmaking fast path: a compiled Matcher that resolves
// an ad's Requirements and Rank once, so the negotiator's inner loop
// searches neither ad for them and allocates nothing per candidate.

// Canonical lower-case names of the matchmaking attributes.
const (
	attrRequirements = "requirements"
	attrRank         = "rank"
)

// Matcher is the compiled form of one ad's matchmaking surface, and holds
// only what a match reads: the Requirements and Rank, the ad version they
// were compiled at and the Rank's class. A Matcher tracks its ad's
// mutation counter and recompiles lazily after any Set/SetExpr, so holding
// one across ad updates is safe. Every queued job holds one, so its size
// is a per-job cost: 64 bytes, plus the class key's bytes for a job with
// a Rank expression. Matchers are not safe for concurrent use.
type Matcher struct {
	ad      *Ad
	version uint64

	// req and rank are the Requirements and Rank expressions, nil when the
	// attribute is absent or a literal.
	req, rank *Expr
	// rankLit is what Rank returns when the Rank is not an expression:
	// a literal's number, 0 for anything else or none.
	rankLit float64
	// class is the Rank expression's class key (see RankClass); byTarget
	// says whether it has a class at all.
	class    string
	byTarget bool
	// reqFalse: the Requirements is a literal other than true, which takes
	// no target.
	reqFalse bool
	// constrains: the ad has a Requirements or a Rank, literal or not.
	constrains bool
}

// NewMatcher compiles ad's Requirements/Rank for repeated matching.
func NewMatcher(ad *Ad) *Matcher {
	m := &Matcher{ad: ad}
	m.compile()
	return m
}

func (m *Matcher) compile() {
	a := m.ad
	*m = Matcher{ad: a, version: a.version}
	if i := a.find(attrRequirements); i >= 0 {
		m.constrains = true
		if e := &a.attrs[i]; e.expr != nil {
			m.req = e.expr
		} else {
			b, ok := e.val.BoolVal()
			m.reqFalse = !ok || !b
		}
	}
	if i := a.find(attrRank); i >= 0 {
		m.constrains = true
		if e := &a.attrs[i]; e.expr != nil {
			m.rank = e.expr
			m.classify()
		} else {
			m.rankLit = rankOf(e.val)
		}
	}
}

// classify finds the Rank expression's class: it has one when every node
// is a literal, a TARGET.-scoped reference, a parenthesis or an operator,
// and its key is the canonical text when any node is a reference.
func (m *Matcher) classify() {
	ns := m.rank.nodes()
	reads := false
	for i := range ns {
		switch n := &ns[i]; n.op {
		case opList, opCall, opCond:
			return
		case opAttr:
			if n.aux != scopeTarget {
				return
			}
			reads = true
		}
	}
	m.byTarget = true
	if reads {
		var buf [64]byte
		m.class = string(appendKey(buf[:0], ns, 0))
	}
}

// appendKey appends the class key text of the subtree at ns[i]: the
// expression's text with attribute names lower-cased and literals tagged
// with their kind (Int(2) and Real(2) print alike but divide differently).
func appendKey(b []byte, ns []node, i int) []byte {
	n := &ns[i]
	switch n.op {
	case opLit:
		return n.lit().appendTo(append(b, 'a'+n.aux))
	case opAttr:
		return appendLower(append(b, "T."...), n.name())
	case opParen:
		b = append(b, '(')
		return append(appendKey(b, ns, i+1), ')')
	case opNeg, opNot:
		return appendKey(append(b, opText[n.op]...), ns, i+1)
	}
	l := i + 1
	b = append(appendKey(b, ns, l), ' ')
	b = append(append(b, opText[n.op]...), ' ')
	return appendKey(b, ns, int(ns[l].end))
}

// rankOf is a Rank value as a number, with Condor's absent/non-numeric →
// 0.0 semantics; NaN is not a number either, so ranks are always ordered.
func rankOf(v Value) float64 {
	if f, ok := v.RealVal(); ok && f == f {
		return f
	}
	return 0
}

func (m *Matcher) sync() {
	if m.version != m.ad.version {
		m.compile()
	}
}

// Constrains reports whether the ad has a Requirements or a Rank.
func (m *Matcher) Constrains() bool {
	m.sync()
	return m.constrains
}

// RankClass reports whether this ad's Rank depends on the match target
// alone — built from literals, parentheses and unary/binary operators over
// explicitly TARGET.-scoped attributes — and returns the expression's
// canonical text as the class key. An absent Rank and one that reads no
// attribute at all are the degenerate class, key "": constant ranks order
// nothing. Every ad of one class ranks any given target the same
// (see TargetRank for the one exception), so a matchmaker can order its
// candidates once per class and take the first acceptable one instead of
// scoring every candidate for every ad. MY. and unscoped references read
// the ad itself, and calls, lists and ternaries are not analysed: those
// Ranks have no class.
func (m *Matcher) RankClass() (key string, ok bool) {
	m.sync()
	if m.rank == nil {
		return "", true
	}
	return m.class, m.byTarget
}

// TargetRank is Rank for an ad that has a rank class; ok is false when the
// value is not a function of the target alone after all: t defines an
// attribute the Rank reads as an expression, which evaluates with this ad
// in scope. A target with no expression attribute defines none.
func (m *Matcher) TargetRank(t *Matcher) (rank float64, ok bool) {
	m.sync()
	if m.rank != nil && !m.byTarget {
		return 0, false
	}
	if m.rank != nil && t.ad.exprs > 0 {
		for _, n := range m.rank.nodes() {
			if n.op != opAttr {
				continue
			}
			if i := t.ad.index(n.name(), n.key()); i >= 0 && t.ad.attrs[i].expr != nil {
				return 0, false
			}
		}
	}
	return m.Rank(t), true
}

// halfOK evaluates m's Requirements against target.
func (m *Matcher) halfOK(target *Ad) bool {
	if m.req == nil {
		return !m.reqFalse
	}
	b, ok := m.req.Eval(scope{self: m.ad, target: target}).BoolVal()
	return ok && b
}

// Match reports symmetric gang-matching between the two compiled ads: each
// ad's Requirements holds with the other as TARGET, a missing Requirements
// counting as satisfied — as Condor's negotiator matches.
func (m *Matcher) Match(t *Matcher) bool {
	m.sync()
	t.sync()
	return m.halfOK(t.ad) && t.halfOK(m.ad)
}

// Rank evaluates m's Rank against the target's ad, with Condor's
// absent/non-numeric → 0.0 semantics; NaN is not a number either, so
// ranks are always ordered.
func (m *Matcher) Rank(t *Matcher) float64 {
	m.sync()
	if m.rank == nil {
		return m.rankLit
	}
	return rankOf(m.rank.Eval(scope{self: m.ad, target: t.ad}))
}

// Pins inspects the Requirements expression for top-level conjuncts
// pinning TARGET.x (or unqualified x) to a string literal — e.g.
// `TARGET.Arch == "x86"` — and returns the literals pinning x and y, from
// one walk; "" stands for no pin, as for a Requirements that is absent or
// a literal. It is the static-analysis hook the negotiator's machine index
// is built on: a job whose Requirements pin Arch can skip every machine
// outside the Arch bucket without evaluating the expression. The
// attribute comparison is case-insensitive; the literals are lower-cased
// to match index keys. Where several conjuncts pin one attribute, the
// first counts.
func (m *Matcher) Pins(x, y string) (sx, sy string) {
	m.sync()
	if m.req == nil {
		return "", ""
	}
	var xok, yok bool
	m.ad.eachPin(m.req.nodes(), 0, func(name, lit string) {
		if !xok && foldCompare(name, x) == 0 {
			sx, xok = lit, true
		} else if !yok && foldCompare(name, y) == 0 {
			sy, yok = lit, true
		}
	})
	return sx, sy
}

// eachPin walks the &&-conjuncts of the subtree at ns[i], left to right,
// calling pin for each attr == "literal" among them with the attribute's
// name and the literal lower-cased. MY.attr refers to the job's own
// attributes, so only TARGET references — or unqualified ones the job
// itself cannot satisfy (unqualified names resolve in self first) —
// constrain the machine.
func (a *Ad) eachPin(ns []node, i int, pin func(name, lit string)) {
	switch n := &ns[i]; n.op {
	case opParen:
		a.eachPin(ns, i+1, pin)
	case opAnd:
		a.eachPin(ns, i+1, pin)
		a.eachPin(ns, int(ns[i+1].end), pin)
	case opEq:
		l, r := &ns[i+1], &ns[ns[i+1].end]
		if l.op != opAttr {
			l, r = r, l
		}
		if l.op != opAttr || l.aux == scopeMy || r.op != opLit || Kind(r.aux) != KindString {
			return
		}
		if l.aux == scopeNone && a.index(l.name(), l.key()) >= 0 {
			return
		}
		pin(l.name(), strings.ToLower(r.lit().str()))
	}
}

// appendLower appends strings.ToLower(s) to b, allocating nothing for an
// ASCII name.
func appendLower(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return append(b, strings.ToLower(s[i:])...)
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

// foldKey is a 32-bit FNV-1a hash of strings.ToLower(name), two names of
// one attribute having one key; from its first non-ASCII byte on, a name
// is lowered whole, and may change length (the Kelvin sign becomes k).
func foldKey(name string) uint32 {
	h, lowered := uint32(2166136261), false
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf && !lowered {
			name, i, lowered = strings.ToLower(name[i:]), -1, true
			continue
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// foldCompare is a case-insensitive string comparison that avoids the
// per-call ToLower allocations on the ASCII fast path; non-ASCII input
// falls back to the exact ToLower semantics the dialect documents. It
// orders string values and, compared with 0, is the equality of attribute
// names (Ad.find).
func foldCompare(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		ca, cb := a[i], b[i]
		if ca >= utf8.RuneSelf || cb >= utf8.RuneSelf {
			return strings.Compare(strings.ToLower(a[i:]), strings.ToLower(b[i:]))
		}
		if ca >= 'A' && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if cb >= 'A' && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
