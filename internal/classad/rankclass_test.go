package classad

import (
	"math"
	"testing"
	"unsafe"
)

// Every Eval returns a Value by value and every literal attribute holds
// one; the matchmaking loop pays for its size in copies. Three words is the
// budget.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d bytes, want <= 24", got)
	}
}

// An ad costs its header plus one entry per attribute, and every queued job
// holds a Matcher; the pool keeps an ad for every job it ever held. The
// allocator rounds each object up to a size class, so a field added to
// either moves memory in steps: fail here first. A three-attribute job ad
// is a 48-byte header and a 144-byte slot (176 with 56-byte entries). An
// expression is one block of nodes, so a node's size is an expression's
// cost per operator, reference and literal. The name keys ride inside
// these: an entry's beside its name's length, a reference node's in the
// upper half of x.
func TestAdAndMatcherSizes(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got > 48 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d bytes, want <= 48 (name and key, value, expression pointer)", got)
	}
	if got := unsafe.Sizeof(node{}); got != 24 {
		t.Errorf("unsafe.Sizeof(node{}) = %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(Ad{}); got > 48 {
		t.Errorf("unsafe.Sizeof(Ad{}) = %d bytes, want <= 48", got)
	}
	if got := unsafe.Sizeof(Matcher{}); got > 64 {
		t.Errorf("unsafe.Sizeof(Matcher{}) = %d bytes, want <= 64", got)
	}
}

var matcherSink *Matcher

// A Matcher allocates beyond itself only for a Rank expression that reads
// the target, and then only its class key: the class's attributes are
// read back off the expression's nodes, and a literal Rank is held as its
// number.
func TestMatcherAllocatesClassOnlyForRank(t *testing.T) {
	plain := New().Set("Owner", "alice").MustSetExpr("Requirements", "TARGET.Memory > 1024")
	ranked := clone(plain).MustSetExpr("Rank", "TARGET.KFlops")
	for _, c := range []struct {
		name string
		ad   *Ad
		want float64
	}{{"no Rank", plain, 1}, {"literal Rank", clone(plain).Set("Rank", 3), 1}, {"Rank expression", ranked, 2}} {
		if got := testing.AllocsPerRun(100, func() { matcherSink = NewMatcher(c.ad) }); got != c.want {
			t.Errorf("%s: NewMatcher allocates %v times, want %v (the matcher; the class key)", c.name, got, c.want)
		}
	}
	m := NewMatcher(ranked)
	if got := testing.AllocsPerRun(100, func() { m.version--; m.sync() }); got != 1 {
		t.Errorf("a recompile allocates %v times, want 1 (the key)", got)
	}
}

func TestValuePayloadRoundTrips(t *testing.T) {
	for _, i := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
		if got, ok := Int(i).IntVal(); !ok || got != i {
			t.Errorf("Int(%d).IntVal() = %d, %v", i, got, ok)
		}
	}
	for _, r := range []float64{0, -0.5, math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		if got, ok := Real(r).RealVal(); !ok || got != r {
			t.Errorf("Real(%g).RealVal() = %g, %v", r, got, ok)
		}
	}
	if !Real(math.NaN()).Equal(Real(math.NaN())) || Int(1).Equal(Bool(true)) || Int(0).Equal(Real(0)) {
		t.Error("Equal must compare kind and content")
	}
	if l, ok := List().ListVal(); !ok || len(l) != 0 {
		t.Errorf("List().ListVal() = %v, %v", l, ok)
	}
	if l, ok := Undefined().ListVal(); ok || l != nil {
		t.Errorf("Undefined().ListVal() = %v, %v", l, ok)
	}
	if got := Errorf("boom %d", 7).String(); got != "error(boom 7)" {
		t.Errorf("error value prints %q", got)
	}
}

func rankClassOf(t *testing.T, rank string) (string, bool) {
	t.Helper()
	ad := New().Set("Boost", 2)
	if rank != "" {
		ad.MustSetExpr("Rank", rank)
	}
	return NewMatcher(ad).RankClass()
}

func TestRankClassClassifier(t *testing.T) {
	for _, rank := range []string{
		"", "5", "-2.5", `"fast"`,
		"TARGET.KFlops",
		"TARGET.KFlops + TARGET.Memory/4",
		"-(TARGET.Memory % 7) * 2.5e3",
		"!(TARGET.Memory >= 2048 && TARGET.Arch == \"x86\")",
	} {
		if _, ok := rankClassOf(t, rank); !ok {
			t.Errorf("Rank %q: want a rank class", rank)
		}
	}
	for _, rank := range []string{
		"MY.Boost", "MY.Boost * TARGET.KFlops", // reads the ad itself
		"KFlops", "TARGET.KFlops + Memory", // unscoped: self first
		"max(TARGET.KFlops, 1)", "ifThenElse(true, 1, 2)", // calls
		"TARGET.Memory > 1024 ? 1 : 0", // ternary
		"size({TARGET.KFlops})",        // list
	} {
		if key, ok := rankClassOf(t, rank); ok {
			t.Errorf("Rank %q: classified as %q, want no class", rank, key)
		}
	}
}

func TestRankClassKeys(t *testing.T) {
	key := func(rank string) string {
		k, ok := rankClassOf(t, rank)
		if !ok {
			t.Fatalf("Rank %q has no class", rank)
		}
		return k
	}
	if key("") != "" || key("5") != "" || key("-2.5") != key("") {
		t.Error("absent and literal Ranks must share the degenerate class \"\"")
	}
	if a, b := key("TARGET.KFlops + TARGET.Memory/4"), key("target.kflops+TARGET.MEMORY / 4"); a != b {
		t.Errorf("spelling and spacing must not split a class: %q vs %q", a, b)
	}
	differ := [][2]string{
		{"TARGET.Memory/4", "TARGET.Memory/4.0"}, // integer against real division
		{"TARGET.KFlops", "-TARGET.KFlops"},
		{"TARGET.KFlops - TARGET.Memory * 2", "(TARGET.KFlops - TARGET.Memory) * 2"},
		{"TARGET.KFlops", "TARGET.Memory"},
		{"TARGET.KFlops + 1", "TARGET.KFlops + 10"},
	}
	for _, p := range differ {
		if key(p[0]) == key(p[1]) {
			t.Errorf("%q and %q must not share class %q", p[0], p[1], key(p[0]))
		}
	}
	// A matcher follows its ad: reclassified after a mutation.
	ad := New().MustSetExpr("Rank", "TARGET.KFlops")
	m := NewMatcher(ad)
	if k, ok := m.RankClass(); !ok || k == "" {
		t.Fatalf("RankClass() = %q, %v", k, ok)
	}
	ad.MustSetExpr("Rank", "MY.Boost")
	if _, ok := m.RankClass(); ok {
		t.Error("RankClass() still classified after Rank became MY.-dependent")
	}
	ad.Set("Rank", 1)
	if k, ok := m.RankClass(); !ok || k != "" {
		t.Errorf("RankClass() after Rank became a literal = %q, %v, want the degenerate class", k, ok)
	}
}

func TestTargetRank(t *testing.T) {
	job := NewMatcher(New().Set("Boost", 3).MustSetExpr("Rank", "TARGET.KFlops + TARGET.Memory/4"))
	lit := NewMatcher(New().Set("KFlops", 1000).Set("Memory", 2048))
	if r, ok := job.TargetRank(lit); !ok || r != 1512 || r != job.Rank(lit) {
		t.Errorf("TargetRank(literal machine) = %v, %v, want 1512", r, ok)
	}
	// An attribute missing from the target is undefined for every job.
	if r, ok := job.TargetRank(NewMatcher(New().Set("KFlops", 1000))); !ok || r != 0 {
		t.Errorf("TargetRank(machine without Memory) = %v, %v, want 0", r, ok)
	}
	// An expression-valued attribute evaluates with the job in scope.
	expr := NewMatcher(New().Set("Memory", 2048).MustSetExpr("KFlops", "TARGET.Boost * 100"))
	if _, ok := job.TargetRank(expr); ok {
		t.Error("TargetRank over an expression-valued KFlops must not be ok")
	}
	if got := job.Rank(expr); got != 812 {
		t.Errorf("Rank over the same machine = %v, want 812", got)
	}
	// ... but only where the Rank reads it.
	if r, ok := NewMatcher(New().MustSetExpr("Rank", "TARGET.Memory")).TargetRank(expr); !ok || r != 2048 {
		t.Errorf("TargetRank reading only literals = %v, %v", r, ok)
	}
	if r, ok := NewMatcher(New().Set("Rank", 7)).TargetRank(expr); !ok || r != 7 {
		t.Errorf("constant TargetRank = %v, %v", r, ok)
	}
	if _, ok := NewMatcher(New().MustSetExpr("Rank", "MY.Boost")).TargetRank(lit); ok {
		t.Error("TargetRank of a Rank without a class must not be ok")
	}
	huge := NewMatcher(New().Set("KFlops", math.MaxFloat64))
	nan := NewMatcher(New().MustSetExpr("Rank", "TARGET.KFlops * 10 - TARGET.KFlops * 10"))
	if v := evalSrc(t, "TARGET.KFlops * 10 - TARGET.KFlops * 10", nil, huge.ad); !math.IsNaN(v.r()) {
		t.Fatalf("the NaN Rank evaluates to %v", v)
	}
	if r, ok := nan.TargetRank(huge); !ok || r != 0 || Rank(nan.ad, huge.ad) != 0 {
		t.Errorf("NaN is not a number: TargetRank = %v, %v, want 0", r, ok)
	}
}

// The parser pulls tokens on demand; a lexical error anywhere still fails
// the parse, and is the error reported.
func TestLexErrorSurfacesThroughParser(t *testing.T) {
	for _, src := range []string{"1 @ 2", "TARGET.x >= 2 && $", `"open`, `1 + "bad \q"`, "(1 + 2) #"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
	e, err := Parse("TARGET.KFlops >= 500000 && TARGET.Memory >= 1024 // trailing comment")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "TARGET.KFlops >= 500000 && TARGET.Memory >= 1024" {
		t.Errorf("reparsed as %q", got)
	}
}
