package classad

import (
	"strings"
	"testing"
	"testing/quick"
)

// evalSrc parses and evaluates src with optional self/target ads.
func evalSrc(t *testing.T, src string, self, target *Ad) Value {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return e.Eval(scope{self: self, target: target})
}

func TestLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"42", Int(42)},
		{"-3", Int(-3)},
		{"3.5", Real(3.5)},
		{"2e3", Real(2000)},
		{".5", Real(0.5)},
		{`"hello"`, Str("hello")},
		{`"esc\"aped\n"`, Str("esc\"aped\n")},
		{"true", Bool(true)},
		{"FALSE", Bool(false)},
		{"undefined", Undefined()},
		{"{1, 2, 3}", List(Int(1), Int(2), Int(3))},
		{"{}", List()},
	}
	for _, c := range cases {
		got := evalSrc(t, c.src, nil, nil)
		if !got.Equal(c.want) {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"1 + 2 * 3", Int(7)},
		{"(1 + 2) * 3", Int(9)},
		{"10 / 3", Int(3)},
		{"10 % 3", Int(1)},
		{"10.0 / 4", Real(2.5)},
		{"2 + 2.5", Real(4.5)},
		{"-2 * -3", Int(6)},
		{"7 - 2 - 1", Int(4)},
		{`"foo" + "bar"`, Str("foobar")},
		{"2.5 % 1.0", Real(0.5)},
	}
	for _, c := range cases {
		got := evalSrc(t, c.src, nil, nil)
		if !got.Equal(c.want) {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	for _, src := range []string{"1/0", "1%0", `1 + true`, `"a" * 2`, `-"s"`, "!5"} {
		if got := evalSrc(t, src, nil, nil); !got.IsError() {
			t.Errorf("%q = %v, want error value", src, got)
		}
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 2.5", true},
		{"2 >= 3", false},
		{"2 == 2.0", true},
		{"2 != 3", true},
		{`"abc" == "ABC"`, true}, // case-insensitive strings
		{`"abc" < "abd"`, true},
		{"true == true", true},
		{"true != false", true},
	}
	for _, c := range cases {
		got := evalSrc(t, c.src, nil, nil)
		if b, ok := got.BoolVal(); !ok || b != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"undefined && true", Undefined()},
		{"undefined && false", Bool(false)},
		{"false && undefined", Bool(false)},
		{"undefined || true", Bool(true)},
		{"undefined || false", Undefined()},
		{"true || undefined", Bool(true)},
		{"undefined == 5", Undefined()},
		{"undefined + 1", Undefined()},
		{"!undefined", Undefined()},
		{"missing && true", Undefined()}, // unresolved attribute
	}
	for _, c := range cases {
		got := evalSrc(t, c.src, nil, nil)
		if !got.Equal(c.want) {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestShortCircuitAbsorbsError(t *testing.T) {
	// false && <error> is false; true || <error> is true.
	if got := evalSrc(t, "false && (1/0 == 1)", nil, nil); !got.Equal(Bool(false)) {
		t.Errorf("false && error = %v", got)
	}
	if got := evalSrc(t, "true || (1/0 == 1)", nil, nil); !got.Equal(Bool(true)) {
		t.Errorf("true || error = %v", got)
	}
	if got := evalSrc(t, "true && (1/0 == 1)", nil, nil); !got.IsError() {
		t.Errorf("true && error = %v, want error", got)
	}
}

func TestTernary(t *testing.T) {
	if got := evalSrc(t, "1 < 2 ? 10 : 20", nil, nil); !got.Equal(Int(10)) {
		t.Errorf("ternary true = %v", got)
	}
	if got := evalSrc(t, "1 > 2 ? 10 : 20", nil, nil); !got.Equal(Int(20)) {
		t.Errorf("ternary false = %v", got)
	}
	if got := evalSrc(t, "undefined ? 10 : 20", nil, nil); !got.IsUndefined() {
		t.Errorf("ternary undefined = %v", got)
	}
	// Nested/right-associative.
	if got := evalSrc(t, "false ? 1 : true ? 2 : 3", nil, nil); !got.Equal(Int(2)) {
		t.Errorf("nested ternary = %v", got)
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"floor(2.9)", Int(2)},
		{"ceil(2.1)", Int(3)},
		{"round(2.5)", Int(3)},
		{"abs(-4)", Int(4)},
		{"abs(-4.5)", Real(4.5)},
		{"min(3, 1, 2)", Int(1)},
		{"max(3, 1, 2.5)", Int(3)},
		{"pow(2, 10)", Real(1024)},
		{`strcat("a", "b", "c")`, Str("abc")},
		{`strcat("n=", 5)`, Str("n=5")},
		{`size("hello")`, Int(5)},
		{"size({1,2})", Int(2)},
		{`toLower("MiXeD")`, Str("mixed")},
		{`toUpper("MiXeD")`, Str("MIXED")},
		{`substr("abcdef", 2)`, Str("cdef")},
		{`substr("abcdef", 1, 3)`, Str("bcd")},
		{`substr("abcdef", -2)`, Str("ef")},
		{`substr("abcdef", 10)`, Str("")},
		{`member("b", {"a", "B", "c"})`, Bool(true)},
		{`member(5, {1, 2, 3})`, Bool(false)},
		{"isUndefined(undefined)", Bool(true)},
		{"isUndefined(1)", Bool(false)},
		{"isError(1/0)", Bool(true)},
		{"ifThenElse(true, 1, 2)", Int(1)},
		{"ifThenElse(false, 1, 2)", Int(2)},
		{`int("42")`, Int(42)},
		{"int(3.9)", Int(3)},
		{"int(true)", Int(1)},
		{`real("2.5")`, Real(2.5)},
		{"real(7)", Real(7)},
		{"string(42)", Str("42")},
		{"min(undefined, 3)", Undefined()},
	}
	for _, c := range cases {
		got := evalSrc(t, c.src, nil, nil)
		if !got.Equal(c.want) {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestBuiltinErrors(t *testing.T) {
	for _, src := range []string{
		"floor()", `floor("x")`, "min()", `size(5)`,
		`substr(5, 1)`, `member(1, 2)`, `int("12abc")`, `real("zz")`,
		"ifThenElse(5, 1, 2)",
	} {
		if got := evalSrc(t, src, nil, nil); !got.IsError() {
			t.Errorf("%q = %v, want error value", src, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "1 +", "(1", "{1,", `"unterminated`, "1 @ 2", "foo(", "nosuchfn(1)",
		"a ? b", `"bad\q"`, "1 2",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestCommentsSkipped(t *testing.T) {
	got := evalSrc(t, "1 + // comment\n 2", nil, nil)
	if !got.Equal(Int(3)) {
		t.Fatalf("comment eval = %v", got)
	}
}

func TestAdSetLookup(t *testing.T) {
	ad := New().
		Set("Owner", "alice").
		Set("JobPrio", 5).
		Set("Cpus", 4).
		Set("LoadAvg", 0.25).
		Set("IsBatch", true)
	if got := ad.Str("owner", ""); got != "alice" {
		t.Errorf("case-insensitive Str = %q", got)
	}
	if got := ad.Int("JOBPRIO", 0); got != 5 {
		t.Errorf("Int = %d", got)
	}
	if got := ad.Float("loadavg", 0); got != 0.25 {
		t.Errorf("Float = %v", got)
	}
	if !ad.Bool("isbatch", false) {
		t.Error("Bool = false")
	}
	if got := ad.Str("nope", "def"); got != "def" {
		t.Errorf("default Str = %q", got)
	}
	if !ad.Lookup("nope").IsUndefined() {
		t.Error("missing attribute not undefined")
	}
}

func TestAdExprAttributes(t *testing.T) {
	ad := New().Set("Base", 10)
	if err := ad.SetExpr("Derived", "Base * 2 + 1"); err != nil {
		t.Fatal(err)
	}
	if got := ad.Lookup("derived"); !got.Equal(Int(21)) {
		t.Fatalf("Derived = %v", got)
	}
	// Changing Base changes Derived: expressions are late-bound.
	ad.Set("Base", 20)
	if got := ad.Lookup("derived"); !got.Equal(Int(41)) {
		t.Fatalf("Derived after update = %v", got)
	}
}

func TestAdSetExprParseError(t *testing.T) {
	if err := New().SetExpr("X", "1 +"); err == nil {
		t.Fatal("bad expression accepted")
	}
}

func TestAdRecursionGuard(t *testing.T) {
	ad := New()
	ad.MustSetExpr("A", "B + 1")
	ad.MustSetExpr("B", "A + 1")
	if got := ad.Lookup("A"); !got.IsError() {
		t.Fatalf("recursive attribute = %v, want error", got)
	}
}

func TestScopedLookup(t *testing.T) {
	job := New().Set("Mem", 512)
	job.MustSetExpr("Requirements", "TARGET.Memory >= MY.Mem")
	machine := New().Set("Memory", 1024)
	if got := job.EvalAttr("Requirements", machine); !got.Equal(Bool(true)) {
		t.Fatalf("Requirements = %v", got)
	}
	small := New().Set("Memory", 256)
	if got := job.EvalAttr("Requirements", small); !got.Equal(Bool(false)) {
		t.Fatalf("Requirements small = %v", got)
	}
	if got := job.EvalAttr("Requirements", nil); !got.IsUndefined() {
		t.Fatalf("Requirements no target = %v", got)
	}
}

func TestUnqualifiedFallsThroughToTarget(t *testing.T) {
	job := New()
	job.MustSetExpr("Requirements", `Arch == "x86"`)
	machine := New().Set("Arch", "x86")
	if got := job.EvalAttr("Requirements", machine); !got.Equal(Bool(true)) {
		t.Fatalf("fallthrough lookup = %v", got)
	}
}

func TestSelfShadowsTarget(t *testing.T) {
	job := New().Set("Site", "nust")
	job.MustSetExpr("WhereAmI", "Site")
	machine := New().Set("Site", "caltech")
	if got := job.EvalAttr("WhereAmI", machine); !got.Equal(Str("nust")) {
		t.Fatalf("self attr shadowing = %v", got)
	}
}

func TestMatch(t *testing.T) {
	job := New().Set("ImageSize", 100)
	job.MustSetExpr("Requirements", "TARGET.Disk >= MY.ImageSize && TARGET.Arch == \"x86\"")
	machine := New().Set("Disk", 500).Set("Arch", "x86")
	machine.MustSetExpr("Requirements", "TARGET.ImageSize <= 200")
	if !Match(job, machine) {
		t.Fatal("expected symmetric match")
	}
	big := New().Set("ImageSize", 300)
	big.MustSetExpr("Requirements", "TARGET.Disk >= MY.ImageSize")
	if Match(big, machine) {
		t.Fatal("machine requirements should reject ImageSize 300")
	}
}

func TestMatchMissingRequirementsIsTrue(t *testing.T) {
	if !Match(New(), New()) {
		t.Fatal("empty ads must match")
	}
}

func TestMatchUndefinedIsFalse(t *testing.T) {
	job := New()
	job.MustSetExpr("Requirements", "TARGET.NoSuchAttr > 5")
	if Match(job, New()) {
		t.Fatal("undefined Requirements must not match")
	}
}

func TestRank(t *testing.T) {
	job := New()
	job.MustSetExpr("Rank", "TARGET.Mips / 100.0")
	fast := New().Set("Mips", 3000)
	slow := New().Set("Mips", 1000)
	if rf, rs := Rank(job, fast), Rank(job, slow); rf <= rs {
		t.Fatalf("Rank fast=%v slow=%v", rf, rs)
	}
	if Rank(New(), fast) != 0 {
		t.Fatal("missing Rank should be 0")
	}
	bad := New()
	bad.MustSetExpr("Rank", `"not a number"`)
	if Rank(bad, fast) != 0 {
		t.Fatal("non-numeric Rank should be 0")
	}
}

func TestAdStringRoundTrips(t *testing.T) {
	ad := New().Set("A", 1).Set("B", "two")
	ad.MustSetExpr("Req", "A > 0")
	s := ad.String()
	for _, want := range []string{"A = 1", `B = "two"`, "Req = A > 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("Ad.String() = %s, missing %q", s, want)
		}
	}
}

// clone is a copy of a from a slab of its own.
func clone(a *Ad) *Ad { return new(Slab).Copy(a) }

// A slab's copies sit side by side in its chunks, each attribute run
// exactly as long as the ad: a write that grows one copy moves it off the
// chunk, so the original and the copy carved after it read as before.
func TestSlabCopiesAreIndependent(t *testing.T) {
	var slab Slab
	a := New().Set("X", 1).Set("Y", "y").MustSetExpr("Z", "X + 1")
	first, next := slab.Copy(a), slab.Copy(New().Set("A", 1).Set("B", 2.5).Set("C", "c"))
	want, wantNext := a.String(), next.String()
	first.Set("X", 2)
	first.Set("JobPrio", 7)
	first.MustSetExpr("Rank", "X * 2")
	if got := a.String(); got != want {
		t.Errorf("writing the copy changed the original: %s, want %s", got, want)
	}
	if got := next.String(); got != wantNext {
		t.Errorf("growing a copy changed the next one: %s, want %s", got, wantNext)
	}
	if got, w := first.String(), `[JobPrio = 7; Rank = X * 2; X = 2; Y = "y"; Z = X + 1]`; got != w {
		t.Errorf("grown copy = %s, want %s", got, w)
	}
	if got := first.EvalAttr("Rank", nil); !got.Equal(Int(4)) {
		t.Errorf("grown copy's Rank = %v, want 4", got)
	}
}

// allocSink keeps what TestAdAllocations builds reachable: an ad that is
// dropped on the spot never leaves the stack and counts as no allocation.
var allocSink struct {
	ad *Ad
	v  Value
}

func TestAdAllocations(t *testing.T) {
	owner, need, prio := "alice", 120.5, 300
	job := New().Set("Owner", "alice").Set("CpuSeconds", 120.0).Set("JobPrio", 1)
	machine := New().Set("Memory", 2048).MustSetExpr("Free", "Memory - 512")
	var slab Slab
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Lookup of a literal", 0, func() { allocSink.v = job.Lookup("cpuseconds") }},
		{"EvalAttr of a literal", 0, func() { allocSink.v = job.EvalAttr("OWNER", machine) }},
		{"EvalAttr of an expression", 0, func() { allocSink.v = machine.EvalAttr("Free", job) }},
		{"Set on an existing attribute", 0, func() { job.Set("jobprio", 2) }},
		// The header and the attributes come from the slab's chunks, which
		// 200 copies share.
		{"Slab copy", 0, func() { allocSink.ad = slab.Copy(job) }},
		{"New and three Sets", 2, func() {
			// Values from variables, as a submitter's are: the header and
			// the attribute array. From names an unconvertible type by
			// reflect.TypeOf, so Set does not box its value (it did, five
			// allocations, while the error path handed v to fmt).
			allocSink.ad = New().Set("Owner", owner).Set("CpuSeconds", need).Set("JobPrio", prio)
		}},
	} {
		got := testing.AllocsPerRun(200, c.fn)
		t.Logf("%s: %v allocations", c.name, got)
		if got > c.max {
			t.Errorf("%s: %v allocations, want <= %v", c.name, got, c.max)
		}
	}
}

func TestAdNamesSorted(t *testing.T) {
	a := New().Set("zz", 1).Set("aa", 2).Set("mm", 3)
	names := a.Names()
	if len(names) != 3 || names[0] != "aa" || names[2] != "zz" {
		t.Fatalf("Names = %v", names)
	}
}

func TestValueFromAndGo(t *testing.T) {
	cases := []struct {
		in   any
		want any
	}{
		{5, 5},
		{int64(6), 6},
		{2.5, 2.5},
		{"s", "s"},
		{true, true},
		{nil, nil},
		{[]string{"a"}, []any{"a"}},
		{[]any{1, "b"}, []any{1, "b"}},
		{uint8(3), "error:unconvertible Go type uint8"},
		{[]int{1}, "error:unconvertible Go type []int"},
	}
	for _, c := range cases {
		got := From(c.in).Go()
		switch want := c.want.(type) {
		case []any:
			gs, ok := got.([]any)
			if !ok || len(gs) != len(want) {
				t.Errorf("From(%#v).Go() = %#v", c.in, got)
				continue
			}
			for i := range want {
				if gs[i] != want[i] {
					t.Errorf("From(%#v).Go()[%d] = %#v", c.in, i, gs[i])
				}
			}
		default:
			if got != c.want {
				t.Errorf("From(%#v).Go() = %#v, want %#v", c.in, got, c.want)
			}
		}
	}
	if !From(struct{}{}).IsError() {
		t.Error("From(struct{}{}) should be an error value")
	}
}

func TestExprStringReparses(t *testing.T) {
	srcs := []string{
		"1 + 2 * 3",
		"TARGET.Disk >= MY.ImageSize && Arch == \"x86\"",
		"min(A, B) > 0 ? strcat(\"a\", \"b\") : undefined",
		"{1, 2.5, \"x\", true}",
		"!(A < B)",
	}
	for _, src := range srcs {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		again, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse of %q → %q: %v", src, e.String(), err)
		}
		if got, want := again.String(), e.String(); got != want {
			t.Errorf("String not fixed-point: %q → %q", want, got)
		}
	}
}

// Property: integer arithmetic in the expression language agrees with Go.
func TestQuickIntArithmetic(t *testing.T) {
	f := func(a, b int16) bool {
		ad := New().Set("A", int(a)).Set("B", int(b))
		sum := ad.clampEval(t, "A + B")
		diff := ad.clampEval(t, "A - B")
		prod := ad.clampEval(t, "A * B")
		return sum == int64(a)+int64(b) &&
			diff == int64(a)-int64(b) &&
			prod == int64(a)*int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func (a *Ad) clampEval(t *testing.T, src string) int64 {
	t.Helper()
	v := evalSrc(t, src, a, nil)
	n, ok := v.IntVal()
	if !ok {
		t.Fatalf("%q = %v, want int", src, v)
	}
	return n
}

// Property: comparisons are consistent with Go ordering for int32 pairs.
func TestQuickComparisonConsistency(t *testing.T) {
	f := func(a, b int32) bool {
		ad := New().Set("A", int(a)).Set("B", int(b))
		lt, _ := evalBool(ad, "A < B")
		gt, _ := evalBool(ad, "A > B")
		eq, _ := evalBool(ad, "A == B")
		return lt == (a < b) && gt == (a > b) && eq == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func evalBool(ad *Ad, src string) (bool, bool) {
	e, err := Parse(src)
	if err != nil {
		return false, false
	}
	return e.Eval(scope{self: ad}).BoolVal()
}
