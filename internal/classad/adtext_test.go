package classad

import (
	"testing"
	"unsafe"
)

func TestParseAdRoundTrip(t *testing.T) {
	a := New().
		Set("Owner", "alice").
		Set("Cmd", "reco.sh").
		Set("RequestCpus", 2).
		Set("ImageSize", 123.5).
		Set("Checkpointable", true).
		Set("Tags", []string{"cms", "higgs"})
	if err := a.SetExpr("Requirements", `TARGET.Arch == "X86_64" && TARGET.Memory >= 1024`); err != nil {
		t.Fatal(err)
	}
	if err := a.SetExpr("Rank", "TARGET.Mips / 1000.0"); err != nil {
		t.Fatal(err)
	}

	text := a.String()
	b, err := ParseAd(text)
	if err != nil {
		t.Fatalf("ParseAd(%q): %v", text, err)
	}
	if got := b.String(); got != text {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", got, text)
	}
	// Literal-vs-expression fidelity: Owner must still be a string literal
	// (index builders depend on LiteralString), Requirements an expression.
	if s, ok := b.LiteralString("Owner"); !ok || s != "alice" {
		t.Fatalf("Owner literal lost: %q %v", s, ok)
	}
	if _, ok := b.LiteralString("Requirements"); ok {
		t.Fatal("Requirements should remain an expression")
	}
	// Matching semantics survive: the parsed ad matches the same machine.
	machine := New().Set("Arch", "X86_64").Set("Memory", 2048).Set("Mips", 2500)
	if !Match(b, machine) {
		t.Fatal("parsed ad no longer matches")
	}
	// Double round trip is a fixed point.
	c, err := ParseAd(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != text {
		t.Fatal("second round trip diverged")
	}
}

func TestParseAdStringsWithSeparators(t *testing.T) {
	a := New().
		Set("Note", `semi; colon " and = signs`).
		Set("Path", "/a/b//c")
	b, err := ParseAd(a.String())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := b.LiteralString("Note"); got != `semi; colon " and = signs` {
		t.Fatalf("Note = %q", got)
	}
	if got, _ := b.LiteralString("Path"); got != "/a/b//c" {
		t.Fatalf("Path = %q", got)
	}
}

func TestParseAdEmpty(t *testing.T) {
	b, err := ParseAd("[]")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestParseAdRejectsMalformed(t *testing.T) {
	for _, src := range []string{
		"", "no brackets", "[a]", "[= 1]", "[a = ]", "[1a = 2]",
		`[a = "unterminated]`,
	} {
		if _, err := ParseAd(src); err == nil {
			t.Errorf("ParseAd(%q) should fail", src)
		}
	}
}

// A restored ad's values point into the shared blocks' own copies of
// their texts, not into the ad text ParseAd was given: neither a
// reference name nor a string literal keeps that buffer alive.
func TestParseAdKeepsNoPointerIntoItsText(t *testing.T) {
	a := New().Set("Owner", "alice").Set("Cmd", "reco.sh").Set("Slots", 2).
		MustSetExpr("Requirements", `TARGET.Arch == "X86_64" && TARGET.Memory >= MY.Slots * 1024`).
		MustSetExpr("Rank", "TARGET.Mips / 1000.0")
	text := a.String()
	b, err := ParseAd(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != text {
		t.Fatalf("ParseAd(%q).String() = %q", text, got)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	texts := b.textOf()
	if len(texts) < 6 {
		t.Fatalf("found %d texts (%q), want the two literals and four names at least", len(texts), texts)
	}
	for _, s := range texts {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p < hi {
			t.Errorf("%q points into the ad text at offset %d", s, p-lo)
		}
	}
}

// A restored ad's literals are read straight from its text: a literal
// takes no block and no trip through the shared table, and only a string
// allocates, for the copy of its bytes. Six literals cost five
// allocations: the ad, its entries (sized for four, then grown), the
// segment list and the copy of "alice". Sending each literal through the
// table as an uncached text cost 19.
func TestParseAdLiteralAllocations(t *testing.T) {
	src := `[Owner = "alice"; CpuSeconds = 30.5; JobPrio = 2; Done = true; InputMB = 12; Note = undefined]`
	got := testing.AllocsPerRun(100, func() {
		if _, err := ParseAd(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ParseAd of six literals: %v allocations", got)
	if got > 5 {
		t.Errorf("ParseAd of six literals allocates %v times, want <= 5", got)
	}
}
