package classad

import (
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// This file is the matchmaking fast path: attribute-name interning, a
// reusable evaluation scope, and a compiled Matcher that pre-resolves an
// ad's Requirements and Rank so the negotiator's inner loop performs no
// map lookups, no case folding, and no allocation per candidate.

// Canonical lower-case keys of the matchmaking attributes.
const (
	attrRequirements = "requirements"
	attrRank         = "rank"
)

// internCap bounds the interning cache; attribute vocabularies are small,
// so the cap only guards against pathological dynamic names.
const internCap = 4096

var (
	internCache sync.Map // original-case name -> lower-case name
	internCount atomic.Int64
)

// lowered returns the lower-cased form of an attribute name. Names that
// are already lower-case ASCII — the common case on hot paths — are
// returned unchanged without allocating; mixed-case names are interned so
// each distinct spelling pays for strings.ToLower once.
func lowered(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= 'A' && c <= 'Z') || c >= utf8.RuneSelf {
			return lowerSlow(s)
		}
	}
	return s
}

func lowerSlow(s string) string {
	if v, ok := internCache.Load(s); ok {
		return v.(string)
	}
	l := strings.ToLower(s)
	if internCount.Load() < internCap {
		if _, loaded := internCache.LoadOrStore(s, l); !loaded {
			internCount.Add(1)
		}
	}
	return l
}

// scopePool recycles evaluation scopes for the package-level Match/Rank
// entry points, keeping them allocation-free at steady state.
var scopePool = sync.Pool{New: func() any { return new(scope) }}

// Matcher is the compiled form of one ad's matchmaking surface: its
// Requirements and Rank entries resolved once, plus a private evaluation
// scope reused across calls. A Matcher tracks its ad's mutation counter
// and recompiles lazily after any Set/SetExpr/Delete, so holding one
// across ad updates is safe. Matchers are not safe for concurrent use.
type Matcher struct {
	ad      *Matchable
	version uint64

	hasReq  bool
	reqExpr Expr  // nil when the attribute is a literal
	reqVal  Value // literal value when reqExpr == nil

	hasRank  bool
	rankExpr Expr
	rankVal  Value
	// Rank classified as a function of the target alone (see RankClass):
	// its canonical text and the TARGET attributes it reads.
	rankByTarget bool
	rankKey      string
	rankAttrs    []string

	sc scope
}

// Matchable aliases Ad; it exists only so the godoc of Matcher reads
// naturally. (Kept as a distinct name to discourage mutating the ad
// through the matcher.)
type Matchable = Ad

// NewMatcher compiles ad's Requirements/Rank for repeated matching.
func NewMatcher(ad *Ad) *Matcher {
	m := &Matcher{ad: ad}
	m.compile()
	return m
}

// Ad returns the underlying ad.
func (m *Matcher) Ad() *Ad { return m.ad }

func (m *Matcher) compile() {
	m.version = m.ad.version
	m.hasReq, m.reqExpr, m.reqVal = m.ad.entryParts(attrRequirements)
	m.hasRank, m.rankExpr, m.rankVal = m.ad.entryParts(attrRank)
	m.rankByTarget, m.rankKey, m.rankAttrs = true, "", m.rankAttrs[:0]
	if m.rankExpr != nil {
		var key strings.Builder
		key.Grow(64)
		m.rankByTarget = targetOnly(m.rankExpr, &key, &m.rankAttrs)
		if m.rankByTarget && len(m.rankAttrs) > 0 {
			m.rankKey = key.String()
		}
	}
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
	return m.rankKey, m.rankByTarget
}

// TargetRank is Rank for an ad that has a rank class; ok is false when the
// value is not a function of the target alone after all: t defines an
// attribute the Rank reads as an expression, which evaluates with this ad
// in scope.
func (m *Matcher) TargetRank(t *Matcher) (rank float64, ok bool) {
	m.sync()
	if !m.rankByTarget {
		return 0, false
	}
	for _, a := range m.rankAttrs {
		if e, found := t.ad.attrs[a]; found && e.expr != nil {
			return 0, false
		}
	}
	return m.Rank(t), true
}

// targetOnly reports whether e reads nothing but literals and TARGET.-scoped
// attributes, appending its canonical text to key and the attributes'
// lower-case names to attrs.
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
		key.WriteString(x.lower)
		*attrs = append(*attrs, x.lower)
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

// entryParts fetches an attribute's compiled pieces by pre-lowered name.
func (a *Ad) entryParts(lowerName string) (ok bool, e Expr, v Value) {
	ent, ok := a.attrs[lowerName]
	if !ok {
		return false, nil, Undefined()
	}
	return true, ent.expr, ent.val
}

// halfOK evaluates m's Requirements against target, reusing m's scope.
func (m *Matcher) halfOK(target *Ad) bool {
	if !m.hasReq {
		return true
	}
	if m.reqExpr == nil {
		b, ok := m.reqVal.BoolVal()
		return ok && b
	}
	m.sc.self, m.sc.target, m.sc.depth = m.ad, target, 0
	v := m.reqExpr.Eval(&m.sc)
	b, ok := v.BoolVal()
	return ok && b
}

// Match reports symmetric gang-matching between the two compiled ads —
// the same answer as Match(m.Ad(), t.Ad()) with no per-call allocation.
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
	if !m.hasRank {
		return 0
	}
	if m.rankExpr == nil {
		f, _ := m.rankVal.RealVal()
		return f
	}
	m.sc.self, m.sc.target, m.sc.depth = m.ad, t.ad, 0
	if f, ok := m.rankExpr.Eval(&m.sc).RealVal(); ok && f == f {
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
	ent, ok := a.attrs[attrRequirements]
	if !ok || ent.expr == nil {
		return "", false
	}
	return a.targetStringEq(ent.expr, lowered(attr))
}

// targetStringEq walks &&-conjuncts looking for attr == "literal".
func (a *Ad) targetStringEq(e Expr, attrLower string) (string, bool) {
	switch x := e.(type) {
	case *parenExpr:
		return a.targetStringEq(x.e, attrLower)
	case *binExpr:
		switch x.op {
		case "&&":
			if s, ok := a.targetStringEq(x.l, attrLower); ok {
				return s, true
			}
			return a.targetStringEq(x.r, attrLower)
		case "==":
			if s, ok := a.eqLiteral(x.l, x.r, attrLower); ok {
				return s, true
			}
			return a.eqLiteral(x.r, x.l, attrLower)
		}
	}
	return "", false
}

// eqLiteral matches the (attrRef, stringLiteral) shape. MY.attr refers to
// the job's own attributes, so only TARGET references — or unqualified
// ones the job itself cannot satisfy (unqualified names resolve in self
// first) — constrain the machine.
func (a *Ad) eqLiteral(ref, lit Expr, attrLower string) (string, bool) {
	ae, ok := ref.(*attrExpr)
	if !ok || ae.lower != attrLower || ae.scope == "my" {
		return "", false
	}
	if ae.scope == "" {
		if _, selfHas := a.attrs[ae.lower]; selfHas {
			return "", false
		}
	}
	le, ok := lit.(*litExpr)
	if !ok {
		return "", false
	}
	s, ok := le.v.StringVal()
	if !ok {
		return "", false
	}
	return lowered(s), true
}

// foldCompare is a case-insensitive string comparison that avoids the
// per-call ToLower allocations on the ASCII fast path; non-ASCII input
// falls back to the exact ToLower semantics the dialect documents.
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
