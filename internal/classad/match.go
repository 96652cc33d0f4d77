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
// only what a match reads: the Requirements and Rank expressions, the ad
// version they were compiled at and, out of line, the Rank's class. A
// Matcher tracks its ad's mutation counter and recompiles lazily after any
// Set/SetExpr, so holding one across ad updates is safe. Every
// queued job holds one, so its size is a per-job cost: 56 bytes (a 64-byte
// allocation), plus the class for a job with a Rank expression. Matchers
// are not safe for concurrent use.
type Matcher struct {
	ad      *Ad
	version uint64

	// req and rank are nil when the attribute is absent; a literal
	// attribute compiles to a litExpr.
	req, rank Expr
	// class is the Rank's class (see RankClass), nil while the Rank is
	// absent or a literal: the degenerate class.
	class *rankClass
}

// rankClass is a Rank expression classified as a function of the target
// alone or not (byTarget): when it is, its canonical text (key) and the
// TARGET attributes it reads.
type rankClass struct {
	byTarget bool
	key      string
	attrs    []string
}

// NewMatcher compiles ad's Requirements/Rank for repeated matching.
func NewMatcher(ad *Ad) *Matcher {
	m := &Matcher{ad: ad}
	m.compile()
	return m
}

func (m *Matcher) compile() {
	m.version = m.ad.version
	m.req = m.ad.compiled(attrRequirements)
	m.rank = m.ad.compiled(attrRank)
	if _, literal := m.rank.(*litExpr); m.rank == nil || literal {
		m.class = nil
		return
	}
	c := m.class
	if c == nil {
		c = &rankClass{}
		m.class = c
	}
	var key strings.Builder
	key.Grow(64)
	c.attrs = c.attrs[:0]
	c.byTarget = targetOnly(m.rank, &key, &c.attrs)
	c.key = ""
	if c.byTarget && len(c.attrs) > 0 {
		c.key = key.String()
	}
}

// compiled returns the named attribute as an expression: nil when absent,
// a literal wrapped in a litExpr.
func (a *Ad) compiled(name string) Expr {
	i := a.find(name)
	if i < 0 {
		return nil
	}
	e := &a.attrs[i]
	if e.expr == nil {
		return &litExpr{v: e.val}
	}
	return e.expr
}

func (m *Matcher) sync() {
	if m.version != m.ad.version {
		m.compile()
	}
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
	if m.class == nil {
		return "", true
	}
	return m.class.key, m.class.byTarget
}

// TargetRank is Rank for an ad that has a rank class; ok is false when the
// value is not a function of the target alone after all: t defines an
// attribute the Rank reads as an expression, which evaluates with this ad
// in scope.
func (m *Matcher) TargetRank(t *Matcher) (rank float64, ok bool) {
	m.sync()
	if c := m.class; c != nil {
		if !c.byTarget {
			return 0, false
		}
		for _, a := range c.attrs {
			if i := t.ad.find(a); i >= 0 && t.ad.attrs[i].expr != nil {
				return 0, false
			}
		}
	}
	return m.Rank(t), true
}

// targetOnly reports whether e reads nothing but literals and TARGET.-scoped
// attributes, appending its canonical text (attribute names lower-cased)
// to key and the attributes' names to attrs.
func targetOnly(e Expr, key *strings.Builder, attrs *[]string) bool {
	switch x := e.(type) {
	case *litExpr:
		// Tagged with the kind: Int(2) and Real(2) print alike but divide
		// differently.
		key.WriteByte('a' + byte(x.v.kind))
		key.WriteString(x.v.String())
		return true
	case *attrExpr:
		if x.scope != "target" {
			return false
		}
		key.WriteString("T.")
		writeLower(key, x.name)
		*attrs = append(*attrs, x.name)
		return true
	case *parenExpr:
		key.WriteByte('(')
		ok := targetOnly(x.e, key, attrs)
		key.WriteByte(')')
		return ok
	case *unaryExpr:
		key.WriteString(x.op)
		return targetOnly(x.e, key, attrs)
	case *binExpr:
		if !targetOnly(x.l, key, attrs) {
			return false
		}
		key.WriteByte(' ')
		key.WriteString(x.op)
		key.WriteByte(' ')
		return targetOnly(x.r, key, attrs)
	}
	return false
}

// halfOK evaluates m's Requirements against target.
func (m *Matcher) halfOK(target *Ad) bool {
	if m.req == nil {
		return true
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
		return 0
	}
	if f, ok := m.rank.Eval(scope{self: m.ad, target: t.ad}).RealVal(); ok && f == f {
		return f
	}
	return 0
}

// ReqStringConstraint inspects the ad's Requirements expression for a
// top-level conjunct pinning TARGET.attr (or unqualified attr) to a string
// literal — e.g. `TARGET.Arch == "x86"` — and returns that literal. It is
// the static-analysis hook the negotiator's machine index is built on: a
// job whose Requirements pin Arch can skip every machine outside the Arch
// bucket without evaluating the expression. The attr comparison is
// case-insensitive; the returned literal is lower-cased to match index
// keys. ok is false when Requirements is absent, a literal, or carries no
// such conjunct.
func (a *Ad) ReqStringConstraint(attr string) (string, bool) {
	i := a.find(attrRequirements)
	if i < 0 || a.attrs[i].expr == nil {
		return "", false
	}
	return a.targetStringEq(a.attrs[i].expr, attr)
}

// targetStringEq walks &&-conjuncts looking for attr == "literal".
func (a *Ad) targetStringEq(e Expr, attr string) (string, bool) {
	switch x := e.(type) {
	case *parenExpr:
		return a.targetStringEq(x.e, attr)
	case *binExpr:
		switch x.op {
		case "&&":
			if s, ok := a.targetStringEq(x.l, attr); ok {
				return s, true
			}
			return a.targetStringEq(x.r, attr)
		case "==":
			if s, ok := a.eqLiteral(x.l, x.r, attr); ok {
				return s, true
			}
			return a.eqLiteral(x.r, x.l, attr)
		}
	}
	return "", false
}

// eqLiteral matches the (attrRef, stringLiteral) shape. MY.attr refers to
// the job's own attributes, so only TARGET references — or unqualified
// ones the job itself cannot satisfy (unqualified names resolve in self
// first) — constrain the machine.
func (a *Ad) eqLiteral(ref, lit Expr, attr string) (string, bool) {
	ae, ok := ref.(*attrExpr)
	if !ok || foldCompare(ae.name, attr) != 0 || ae.scope == "my" {
		return "", false
	}
	if ae.scope == "" && a.Has(ae.name) {
		return "", false
	}
	le, ok := lit.(*litExpr)
	if !ok {
		return "", false
	}
	s, ok := le.v.StringVal()
	if !ok {
		return "", false
	}
	return strings.ToLower(s), true
}

// writeLower appends strings.ToLower(s) to b, allocating nothing for an
// ASCII name.
func writeLower(b *strings.Builder, s string) {
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
