package main

import (
	"io"
	"path/filepath"
	"reflect"
	"testing"
)

// synthetic builds a tree from (id, parent, op, name, start, end) rows.
func synthetic(rows ...span) *spanTree { return buildTree(rows) }

func TestSelfTime(t *testing.T) {
	tree := synthetic(
		span{ID: 1, Parent: 0, Op: 1, Name: "outer", StartNS: 0, EndNS: 100},
		// Overlapping children cover [10,50) once, not 30+30.
		span{ID: 2, Parent: 1, Op: 1, Name: "a", StartNS: 10, EndNS: 40},
		span{ID: 3, Parent: 1, Op: 1, Name: "b", StartNS: 20, EndNS: 50},
		// A gap [50,70) stays with the parent; this child outlives it by
		// 20 and takes only [70,100) from it.
		span{ID: 4, Parent: 1, Op: 1, Name: "late", StartNS: 70, EndNS: 120},
		// A grandchild is taken from its own parent only.
		span{ID: 5, Parent: 2, Op: 1, Name: "leaf", StartNS: 15, EndNS: 25},
	)
	want := map[string]int64{"outer": 100 - 40 - 30, "a": 30 - 10, "b": 30, "late": 50, "leaf": 10}
	got, count := tree.selfByName()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if count["outer"] != 1 || count["leaf"] != 1 {
		t.Fatalf("counts %v", count)
	}
}

func TestSpanFileRoundTrips(t *testing.T) {
	rec := newRecorder()
	outer := rec.begin(0, 7, "outer")
	rec.add(outer, 7, "inner", rec.now(), rec.now()+5)
	rec.finish(outer)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, rec.all()); err != nil {
		t.Fatal(err)
	}
	back, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec.all()) {
		t.Fatalf("read back %+v, wrote %+v", back, rec.all())
	}
	if back[0].EndNS < back[0].StartNS {
		t.Fatalf("finished span ends before it starts: %+v", back[0])
	}
}

// TestSpansOfOneOpShareItsID runs the tiny traced serving slice and
// checks the chain the per-layer table rests on: every traced request
// has one gae.call, one net.roundtrip under it and one clarens.serve
// under that, all three carrying the request's op number.
func TestSpansOfOneOpShareItsID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	if _, err := runWorkload("serve-write", 3, 0, true, path, t.TempDir(), tinySizes, io.Discard); err != nil {
		t.Fatal(err)
	}
	spans, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int64]span{}
	calls := map[int64]int{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	journaled := 0
	for _, s := range spans {
		switch s.Name {
		case "gae.call":
			calls[s.Op]++
			if s.Parent != 0 {
				t.Errorf("gae.call %d has parent %d", s.ID, s.Parent)
			}
		case "net.roundtrip":
			if p := byID[s.Parent]; p.Name != "gae.call" || p.Op != s.Op {
				t.Errorf("net.roundtrip of op %d hangs under %+v", s.Op, p)
			}
		case "clarens.serve":
			if p := byID[s.Parent]; p.Name != "net.roundtrip" || p.Op != s.Op {
				t.Errorf("clarens.serve of op %d hangs under %+v", s.Op, p)
			}
		case "core.rpc":
			journaled++
			if p := byID[s.Parent]; p.Name != "clarens.serve" || p.Op != s.Op {
				t.Errorf("core.rpc of op %d hangs under %+v", s.Op, p)
			}
		}
	}
	if len(calls) != serveTiny.traceOps {
		t.Fatalf("%d traced ops, want %d", len(calls), serveTiny.traceOps)
	}
	for op, n := range calls {
		if n != 1 {
			t.Errorf("op %d has %d gae.call spans", op, n)
		}
	}
	if journaled != serveTiny.traceOps {
		t.Errorf("%d of %d journaled ops were joined to the program's own spans", journaled, serveTiny.traceOps)
	}
}
