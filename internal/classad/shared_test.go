package classad

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Storing a text the table already holds, here from a copy of its bytes
// as a submitter's formatted string would be, into an ad with room for
// the attribute costs nothing: the parse is the table's.
func TestSetExprOfSeenSource(t *testing.T) {
	src := simMatchShapes[1]
	New().MustSetExpr("Requirements", src)
	seen := strings.Clone(src)
	ad := New().Set("Owner", "alice")
	got := testing.AllocsPerRun(100, func() {
		ad.attrs, ad.exprs = ad.attrs[:1], 0
		ad.MustSetExpr("Requirements", seen)
	})
	if got != 0 {
		t.Errorf("SetExpr of a seen text allocates %v times, want 0", got)
	}
}

// The table never holds more than sharedCap texts, and never one longer
// than sharedMaxLen; a text it does not keep still parses and evaluates.
func TestSharedTableBound(t *testing.T) {
	ad := New().Set("A", 1)
	for i := range sharedCap + 100 {
		ad.MustSetExpr("X", fmt.Sprintf("A + %d", i))
		if n := sharedLen(); n > sharedCap {
			t.Fatalf("after %d texts the table holds %d, want <= %d", i+1, n, sharedCap)
		}
	}
	if got := ad.Lookup("X"); !got.Equal(Int(sharedCap + 100)) {
		t.Errorf("X = %v after the table was replaced, want %d", got, sharedCap+100)
	}
	held := sharedLen()
	long := strings.Repeat("A + ", sharedMaxLen/4) + "1"
	ad.MustSetExpr("Long", long)
	if n := sharedLen(); n != held {
		t.Errorf("a %d-byte text changed the table from %d to %d texts", len(long), held, n)
	}
	if got := ad.Lookup("Long"); !got.Equal(Int(sharedMaxLen/4 + 1)) {
		t.Errorf("Long = %v, want %d", got, sharedMaxLen/4+1)
	}
}

// Goroutines storing shared and distinct texts at once, enough of them to
// replace the full table on the way, each read back their own values;
// under -race this is the table's lock test.
func TestSharedTableConcurrentSetExpr(t *testing.T) {
	const workers, each = 8, 600
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				ad := New().Set("A", w).Set("Memory", 2048)
				ad.MustSetExpr("Requirements", "Memory >= 1024").
					MustSetExpr("X", fmt.Sprintf("A * %d + %d", each, i))
				if got, want := ad.Lookup("X"), Int(int64(w*each+i)); !got.Equal(want) {
					t.Errorf("worker %d: X = %v, want %v", w, got, want)
					return
				}
				if got := ad.Lookup("Requirements"); !got.Equal(Bool(true)) {
					t.Errorf("worker %d: Requirements = %v, want true", w, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// The table is for the texts a cluster of jobs repeats: restoring 5 000
// ads that each carry values of their own stores none of those literals,
// and a Requirements block seen before they came stays the one a later
// ad gets.
func TestSharedTableSkipsLiterals(t *testing.T) {
	const req = `TARGET.Arch == "x86" && TARGET.Memory >= 1024`
	first, err := ParseAd("[Requirements = " + req + "]")
	if err != nil {
		t.Fatal(err)
	}
	held := sharedLen()
	for i := range 5000 {
		src := fmt.Sprintf(`[Owner = "user%d"; CpuSeconds = %d.5; JobPrio = %d; Done = %v]`, i, i, 100000+i, i%2 == 0)
		if _, err := ParseAd(src); err != nil {
			t.Fatal(err)
		}
	}
	if n := sharedLen(); n != held {
		t.Errorf("5 000 ads of literals changed the table from %d to %d texts", held, n)
	}
	again, err := ParseAd("[Requirements = " + req + "]")
	if err != nil {
		t.Fatal(err)
	}
	block := func(ad *Ad) *Expr { return ad.attrs[ad.find("Requirements")].expr }
	if block(first) == nil || block(again) != block(first) {
		t.Errorf("the Requirements block seen before the literals is not shared after them")
	}
}
