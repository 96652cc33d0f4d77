package classad

import (
	"runtime"
	"testing"
)

// The four expression shapes of the sim-match benchmark's jobs.
var simMatchShapes = []string{
	"TARGET.Memory >= 4096",
	`TARGET.Arch == "x86_64" && TARGET.Memory >= 2048`,
	"TARGET.KFlops >= 512000 && TARGET.Memory >= 1024",
	"TARGET.KFlops + TARGET.Memory/4",
}

// bytesPerRun is the heap bytes one call of fn allocates, averaged over
// runs calls, on one thread as testing.AllocsPerRun counts them.
func bytesPerRun(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

var exprSink *Expr

// An expression is one allocation, sized to its nodes, and never weighs
// more than the tree of interface nodes it replaced: treeBytes is what
// treeParse allocated for each shape (tree_oracle_test.go), 4 to 10
// objects apiece, and the tree is measured again alongside.
func TestExprAllocations(t *testing.T) {
	treeBytes := []uint64{112, 280, 272, 200}
	for i, src := range simMatchShapes {
		parse := func() { exprSink, _ = Parse(src) }
		if got := testing.AllocsPerRun(100, parse); got != 1 {
			t.Errorf("Parse(%q) allocates %v times, want 1", src, got)
		}
		got := bytesPerRun(100, parse)
		tree := bytesPerRun(100, func() { _, _ = treeParse(src) })
		t.Logf("Parse(%q): %d bytes, the tree %d (recorded %d)", src, got, tree, treeBytes[i])
		if got > min(tree, treeBytes[i]) {
			t.Errorf("Parse(%q) allocates %d bytes, want <= %d (the tree's, recorded) and <= %d (measured)", src, got, treeBytes[i], tree)
		}
	}
}

// Identifiers are Unicode letters, digits and '_', read as runes: the
// names Set and ParseAd accept parse in an expression too, and a stray
// character is reported as itself at its byte offset.
func TestUnicodeIdentifiers(t *testing.T) {
	ad := New().Set("Größe", 4).Set("naïve", true).Set("Über", "x")
	for _, c := range []struct {
		src  string
		want Value
	}{
		{"Größe > 3", Bool(true)},
		{"GRÖSSE > 3", Undefined()}, // ToLower folds Ö to ö, not to ss
		{"grÖße * 2", Int(8)},
		{"naïve", Bool(true)},
		{`Über == "X"`, Bool(true)},
		{"MY.Größe", Int(4)},
	} {
		if got := evalSrc(t, c.src, ad, nil); !got.Equal(c.want) {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
	for _, c := range []struct{ src, err string }{
		{"Größe > €", "classad: unexpected character '€' at 10"},
		{"€", "classad: unexpected character '€' at 0"},
		{"a ¶ b", "classad: unexpected character '¶' at 2"},
		{"x\xff", "classad: unexpected character '\ufffd' at 1"},
	} {
		if _, err := Parse(c.src); err == nil || err.Error() != c.err {
			t.Errorf("Parse(%q) error = %v, want %s", c.src, err, c.err)
		}
	}
	if e, err := Parse("Über + naïve"); err != nil || e.String() != "Über + naïve" {
		t.Errorf("Parse(\"Über + naïve\") = %v, %v", e, err)
	}
}

// FuzzExprAgainstTree holds the one-block parser and the opcode evaluator
// to the tree implementation they replaced (tree_oracle_test.go): the
// same accept or reject with the same error text, the same String, the
// same value against a fixed pair of ads, and the same rank class and
// pinned Arch and OpSys literals.
func FuzzExprAgainstTree(f *testing.F) {
	for _, src := range simMatchShapes {
		f.Add(src)
	}
	for _, src := range []string{
		"1 + 2 * 3 - 4 / 5 % 6", "-A", "!(A < B)", "--1", "A == B", "A != B", "A <= B", "A >= B", "A > B",
		"A && B || !C", "(1)", "((A))", `"a\"b\\c\n\t\r"`, `"x" + "y"`, "1.5e3 + .5 - 2E-2",
		"A ? B : C", "true ? 1 : 2 ? 3 : 4", "min(A, B) > 0 ? strcat(\"a\", \"b\") : undefined",
		"ifThenElse(isUndefined(X), 1, 2)", "size({1, 2.5, \"x\", true})", "{}", "{1}", "member(2, {1, 2})",
		"TRUE || False", "UNDEFINED", "Error", "my.A + Target.Memory", "MY", "target", "TARGET.true",
		"Größe > 3", "naïve", "Über", "€", "a.b", "MY.(1)", "nosuchfn(1)", "foo(", "1 2", "1 @ 2",
		"99999999999999999999", "1e", `"open`, `"bad\q"`, "a ? b", "// only a comment", "x // c\n + 1",
		`TARGET.Arch == "X86" && (TARGET.OpSys == "Linux" && Memory > 1)`, `"x86" == Arch`, `MY.Arch == "x"`,
		"TARGET.KFlops + TARGET.Memory/4.0", "-(TARGET.Memory % 7) * 2.5e3", "İnt(2.5)", "falſe",
		// The Kelvin sign lower-cases to an ASCII k, one byte shorter: the
		// keyed lookup must find KFlops and Key under it.
		"TARGET.\u212AFlops > 1000", "\u212AEY + \u212Aflops", "MY.\u212Aey == TARGET.kEY",
	} {
		f.Add(src)
	}
	self := New().Set("A", 3).Set("B", 4.5).Set("C", false).Set("Arch", "x86").Set("Größe", 4).Set("Key", 7).
		MustSetExpr("X", "A * 2").MustSetExpr("Loop", "Loop + 1")
	target := New().Set("Memory", 2048).Set("KFlops", 600000).Set("Arch", "X86_64").Set("OpSys", "LINUX").Set("\u212Aey", 7).
		Set("Name", "n1").MustSetExpr("Free", "Memory - MY.Memory / 2")
	f.Fuzz(func(t *testing.T, src string) {
		got, gerr := Parse(src)
		want, werr := treeParse(src)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("Parse(%q): error %v, the tree's %v", src, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if g, w := got.String(), want.String(); g != w {
			t.Fatalf("Parse(%q).String() = %q, the tree's %q", src, g, w)
		}
		sc := scope{self: self, target: target}
		if g, w := got.Eval(sc), want.Eval(sc); !g.Equal(w) {
			t.Fatalf("Parse(%q).Eval = %v, the tree's %v", src, g, w)
		}
		ad := self.Clone().MustSetExpr("Rank", src).MustSetExpr("Requirements", src)
		m := NewMatcher(ad)
		gk, gok := m.RankClass()
		wk, wok := treeRankClass(want)
		if gk != wk || gok != wok {
			t.Fatalf("RankClass of %q = %q, %v, the tree's %q, %v", src, gk, gok, wk, wok)
		}
		arch, opsys := m.Pins("Arch", "OpSys")
		for _, c := range []struct{ attr, pin string }{{"Arch", arch}, {"OpSys", opsys}} {
			if w, _ := ad.treeTargetStringEq(want, c.attr); c.pin != w {
				t.Fatalf("%q pins %s to %q, the tree to %q", src, c.attr, c.pin, w)
			}
		}
	})
}
