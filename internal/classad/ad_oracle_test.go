package classad

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The map-backed ad: attribute storage as Ad kept it before it became one
// slice searched linearly — a map keyed by the lower-cased name. Set,
// SetExpr, Has, Names, Len, String, LiteralString and Clone (now
// Slab.Copy) are the replaced production code, verbatim but for the
// lower-casing, which is strings.ToLower where production interned. The
// differential test below holds Ad to it observation for observation.

type mapAd struct {
	attrs   map[string]mapEntry
	version uint64
}

// mapEntry is one attribute as the map held it: its name as a string.
type mapEntry struct {
	name string
	val  Value
	expr *Expr
}

func newMapAd() *mapAd { return &mapAd{attrs: make(map[string]mapEntry)} }

func (a *mapAd) mutated() { a.version++ }

func (a *mapAd) Set(name string, v any) {
	a.attrs[strings.ToLower(name)] = mapEntry{name: name, val: From(v)}
	a.mutated()
}

func (a *mapAd) SetExpr(name, src string) error {
	e, err := Parse(src)
	if err != nil {
		return fmt.Errorf("classad: attribute %s: %w", name, err)
	}
	a.attrs[strings.ToLower(name)] = mapEntry{name: name, expr: e}
	a.mutated()
	return nil
}

func (a *mapAd) Has(name string) bool {
	_, ok := a.attrs[strings.ToLower(name)]
	return ok
}

func (a *mapAd) Names() []string {
	out := make([]string, 0, len(a.attrs))
	for _, e := range a.attrs {
		out = append(out, e.name)
	}
	sort.Strings(out)
	return out
}

func (a *mapAd) Len() int { return len(a.attrs) }

func (a *mapAd) String() string {
	names := a.Names()
	var sb strings.Builder
	sb.WriteString("[")
	for i, n := range names {
		if i > 0 {
			sb.WriteString("; ")
		}
		e := a.attrs[strings.ToLower(n)]
		sb.WriteString(e.name)
		sb.WriteString(" = ")
		if e.expr != nil {
			sb.WriteString(e.expr.String())
		} else {
			sb.WriteString(e.val.String())
		}
	}
	sb.WriteString("]")
	return sb.String()
}

func (a *mapAd) LiteralString(name string) (string, bool) {
	e, ok := a.attrs[strings.ToLower(name)]
	if !ok || e.expr != nil {
		return "", false
	}
	return e.val.StringVal()
}

func (a *mapAd) Clone() *mapAd {
	c := &mapAd{attrs: make(map[string]mapEntry, len(a.attrs))}
	for k, e := range a.attrs {
		c.attrs[k] = e
	}
	return c
}

// fresh builds the Ad the map describes from nothing, by appending its
// attributes in key order: an ad with no history. Expressions evaluate
// against *Ad scopes, so the oracle's evaluations run on fresh ads — which
// no overwrite or Clone has ever touched — with the attribute
// itself still fetched from the map.
func (a *mapAd) fresh() *Ad {
	keys := make([]string, 0, len(a.attrs))
	for k := range a.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ad := New()
	for _, k := range keys {
		e := a.attrs[k]
		ad.put(newEntry(e.name, e.val, e.expr))
	}
	return ad
}

func (a *mapAd) EvalAttr(name string, target *mapAd) Value {
	e, ok := a.attrs[strings.ToLower(name)]
	if !ok {
		return Undefined()
	}
	if e.expr == nil {
		return e.val
	}
	var t *Ad
	if target != nil {
		t = target.fresh()
	}
	return e.expr.Eval(scope{self: a.fresh(), target: t})
}

// oraclePair is one ad under test with its oracle, and a Matcher compiled
// when the pair was made and held across everything done to the ad since.
type oraclePair struct {
	ad   *Ad
	want *mapAd
	m    *Matcher
}

func newOraclePair(ad *Ad, want *mapAd) *oraclePair {
	return &oraclePair{ad: ad, want: want, m: NewMatcher(ad)}
}

// oracleNames are the differential's attribute vocabulary: 26 names, more
// than an ad is allowed to hold, each written in several spellings. Two are
// not ASCII, so the compare's ToLower fallback runs too, and "\u212Aey"
// (the Kelvin sign, which lower-cases to an ASCII k) is the attribute "key"
// under a spelling one byte longer: a keyed lookup that hashed the bytes as
// written, or filtered on length, would find neither under the other's
// name. Only the last eight are ever given an expression.
var oracleNames = []string{
	"Owner", "CpuSeconds", "JobPrio", "Memory", "Arch", "OpSys", "KFlops", "LoadAvg",
	"Disk", "ImageSize", "Cmd", "Env", "Mips", "Machine", "Ärger", "x_1", "key", "\u212Aey",
	"Requirements", "Rank", "a", "b", "ab", "abc", "Reqs", "Ranking",
}

const oracleLiteralNames = 18

func spelling(rng *rand.Rand, name string) string {
	switch rng.Intn(4) {
	case 0:
		return strings.ToLower(name)
	case 1:
		return strings.ToUpper(name)
	case 2:
		var sb strings.Builder
		for _, r := range name {
			if rng.Intn(2) == 0 {
				sb.WriteString(strings.ToUpper(string(r)))
			} else {
				sb.WriteString(strings.ToLower(string(r)))
			}
		}
		return sb.String()
	}
	return name
}

// oracleExprs each read at most one attribute that may itself hold an
// expression: definitions then chain (a = b + 1, b = a: down to the depth
// guard, 64 steps) and never fan out — the guard bounds depth, not breadth.
var oracleExprs = []string{
	"TARGET.Memory >= MY.ImageSize",
	"target.memory >= 512 && TARGET.Arch == \"x86\"",
	"Memory * 2 + KFLOPS",
	"TARGET.KFlops + TARGET.Memory/4",
	"MY.Disk > target.disk", "LoadAvg < 0.5", "x_1 == 3", "strcat(Cmd, Env)",
	"true", "7", "2.5",
	"a + 1", "B + Memory", "AB ? Memory : Disk", "TARGET.abc", "my.a",
	"Rank + 1", "Requirements", "target.rank", "Reqs && TARGET.Mips >= 1", "ranking",
	"\u212Aey * 2", "TARGET.\u212AEY > MY.KEY",
}

func randomLiteral(rng *rand.Rand) any {
	switch rng.Intn(5) {
	case 0:
		return rng.Intn(2) == 0
	case 1:
		return float64(rng.Intn(64)) + 0.5
	case 2:
		return []string{"x86", "LINUX", "alice", "X86"}[rng.Intn(4)]
	}
	return rng.Intn(4096)
}

// sameValue is Value.Equal that also tells Int(2) from Real(2) printing
// alike, and compares error messages.
func sameValue(a, b Value) bool { return a.Equal(b) && a.String() == b.String() }

func TestAdMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Copies come from one slab, side by side, and are written to after.
		var slab Slab
		pairs := []*oraclePair{newOraclePair(New(), newMapAd()), newOraclePair(New(), newMapAd())}
		var trace []string
		for step := 0; step < 300; step++ {
			p := pairs[rng.Intn(len(pairs))]
			name := spelling(rng, oracleNames[rng.Intn(len(oracleNames))])
			op := rng.Intn(7)
			if p.want.Len() >= 20 && !p.want.Has(name) {
				// An ad holds 0-20 attributes: at the cap, only overwrite.
				names := p.want.Names()
				name, op = spelling(rng, names[rng.Intn(len(names))]), 0
			}
			switch {
			case op < 4:
				v := randomLiteral(rng)
				trace = append(trace, fmt.Sprintf("Set(%q, %v)", name, v))
				p.ad.Set(name, v)
				p.want.Set(name, v)
			case op < 6:
				name = spelling(rng, oracleNames[oracleLiteralNames+rng.Intn(len(oracleNames)-oracleLiteralNames)])
				src := oracleExprs[rng.Intn(len(oracleExprs))]
				trace = append(trace, fmt.Sprintf("SetExpr(%q, %q)", name, src))
				if err, werr := p.ad.SetExpr(name, src), p.want.SetExpr(name, src); err != nil || werr != nil {
					t.Fatalf("seed %d: SetExpr(%q, %q): %v / %v", seed, name, src, err, werr)
				}
			default:
				trace = append(trace, "Copy")
				c := newOraclePair(slab.Copy(p.ad), p.want.Clone())
				if len(pairs) < 4 {
					pairs = append(pairs, c)
				} else {
					pairs[rng.Intn(len(pairs))] = c
				}
			}
			// Every pair, not only the one touched: a copy that shares
			// storage with its source, or with the copy carved beside it,
			// shows up in the other.
			for i, q := range pairs {
				target := pairs[(i+1)%len(pairs)]
				if msg := q.diverges(rng, target); msg != "" {
					t.Fatalf("seed %d step %d, pair %d: %s\nlast ops: %s\n  ad %v\nwant %v", seed, step, i, msg,
						strings.Join(trace[max(0, len(trace)-8):], "; "), q.ad, q.want)
				}
			}
		}
	}
}

// diverges compares every observation of the ad with the oracle's and
// describes the first difference.
func (p *oraclePair) diverges(rng *rand.Rand, target *oraclePair) string {
	if got, want := p.ad.Len(), p.want.Len(); got != want {
		return fmt.Sprintf("Len %d, want %d", got, want)
	}
	if got, want := p.ad.Names(), p.want.Names(); !slices.Equal(got, want) {
		return fmt.Sprintf("Names %q, want %q", got, want)
	}
	if got, want := p.ad.String(), p.want.String(); got != want {
		return fmt.Sprintf("String %s, want %s", got, want)
	}
	if got, want := p.ad.version, p.want.version; got != want {
		return fmt.Sprintf("Version %d, want %d", got, want)
	}
	for _, base := range oracleNames {
		name := spelling(rng, base)
		if got, want := p.ad.Has(name), p.want.Has(name); got != want {
			return fmt.Sprintf("Has(%q) %v, want %v", name, got, want)
		}
		if got, want := p.ad.Lookup(name), p.want.EvalAttr(name, nil); !sameValue(got, want) {
			return fmt.Sprintf("Lookup(%q) %v, want %v", name, got, want)
		}
		if got, want := p.ad.EvalAttr(name, target.ad), p.want.EvalAttr(name, target.want); !sameValue(got, want) {
			return fmt.Sprintf("EvalAttr(%q, target) %v, want %v", name, got, want)
		}
		gs, gok := p.ad.LiteralString(name)
		ws, wok := p.want.LiteralString(name)
		if gs != ws || gok != wok {
			return fmt.Sprintf("LiteralString(%q) %q %v, want %q %v", name, gs, gok, ws, wok)
		}
		if got, want := p.ad.Get(NameOf(name)), p.want.EvalAttr(name, nil); !sameValue(got, want) {
			return fmt.Sprintf("Get(%q) %v, want %v", name, got, want)
		}
	}
	if got, want := Constrains(p.ad), p.want.Has("requirements") || p.want.Has("rank"); got != want {
		return fmt.Sprintf("Constrains %v, want %v", got, want)
	}
	// The held Matcher answers as a freshly compiled one over an ad with
	// no history does.
	self, other := p.want.fresh(), target.want.fresh()
	if got, want := p.m.Accepts(target.ad), halfMatch(self, other); got != want {
		return fmt.Sprintf("held Matcher.Accepts %v, want %v", got, want)
	}
	if got, want := p.m.Match(target.m), Match(self, other); got != want {
		return fmt.Sprintf("held Matcher.Match %v, want %v", got, want)
	}
	if got, want := p.m.Rank(target.m), Rank(self, other); got != want {
		return fmt.Sprintf("held Matcher.Rank %v, want %v", got, want)
	}
	gk, gok := p.m.RankClass()
	wk, wok := NewMatcher(self).RankClass()
	if gk != wk || gok != wok {
		return fmt.Sprintf("held Matcher.RankClass %q %v, want %q %v", gk, gok, wk, wok)
	}
	return ""
}

// Two names whose keys collide are two attributes: a key hit is confirmed
// by the name, in a lookup by name and by a keyed name alike.
func TestKeyCollisionIsConfirmedByName(t *testing.T) {
	a, b := "ovfrcre", "yoiqyss"
	if foldKey(a) != foldKey(b) {
		t.Fatalf("foldKey(%q) = %#x and foldKey(%q) = %#x no longer collide", a, foldKey(a), b, foldKey(b))
	}
	ad := New().Set(a, 1)
	if ad.Has(b) || !ad.Get(NameOf(b)).IsUndefined() {
		t.Errorf("an ad of %s has %s", a, b)
	}
	ad.Set(b, 2)
	if ad.Len() != 2 || !ad.Get(NameOf(a)).Equal(Int(1)) || !ad.Get(NameOf(b)).Equal(Int(2)) {
		t.Errorf("setting %s over an ad of %s gave %v", b, a, ad)
	}
}
