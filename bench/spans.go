package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the ID of the span that caused this one
// (0 for an outermost span). Times are nanoseconds since the recorder
// was created.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the serving stack records client- and server-side
// spans from different goroutines.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now returns the recorder's clock reading.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// at converts a wall-clock instant (as the program's own telemetry
// stamps them) to the recorder's clock.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add stores a finished span and returns its ID.
func (r *recorder) add(parent, op int64, name string, start, end int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: start, EndNS: end})
	return id
}

// begin reserves a span whose end is not known yet, so that spans it
// causes can name it as their parent; finish closes it.
func (r *recorder) begin(parent, op int64, name string) int64 {
	return r.add(parent, op, name, r.now(), -1)
}

func (r *recorder) finish(id int64) {
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].EndNS = end
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

// readSpans reads a file written by writeSpans.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

// spanTree indexes spans by parent so self times can be read off it.
type spanTree struct {
	spans    []span
	children map[int64][]int // parent ID → indexes into spans
}

func buildTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: make(map[int64][]int)}
	for i, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], i)
	}
	return t
}

// self returns the span's duration minus the part of its interval its
// child spans cover. Overlapping children are counted once, gaps between
// them stay with the parent, and the part of a child that lies outside
// the parent's interval takes nothing from the parent.
func (t *spanTree) self(i int) int64 {
	s := t.spans[i]
	kids := t.children[s.ID]
	if len(kids) == 0 {
		return s.dur()
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := t.spans[k].StartNS, t.spans[k].EndNS
		if a < s.StartNS {
			a = s.StartNS
		}
		if b > s.EndNS {
			b = s.EndNS
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var covered, hi int64
	hi = s.StartNS
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			covered += v.b - hi
			hi = v.b
		}
	}
	return s.dur() - covered
}

// selfByName sums self time per span name, in nanoseconds, and counts
// the spans of each name.
func (t *spanTree) selfByName() (self map[string]int64, count map[string]int) {
	self = make(map[string]int64)
	count = make(map[string]int)
	for i, s := range t.spans {
		self[s.Name] += t.self(i)
		count[s.Name]++
	}
	return self, count
}

// durByName sums span durations per name, in nanoseconds.
func (t *spanTree) durByName() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range t.spans {
		out[s.Name] += s.dur()
	}
	return out
}
