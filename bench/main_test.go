package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsTiny runs every workload, untraced and traced, at the
// tiny sizes: no operation fails and every declared metric comes out
// exactly once (report.check inside runWorkload fails a metric set twice,
// left unset or undeclared).
func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.Name + "/untraced"
			defs := endToEnd
			spanFile := ""
			if traced {
				name = wl.Name + "/traced"
				defs = perLayer
				spanFile = filepath.Join(t.TempDir(), "spans.json")
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := runWorkload(wl.Name, 1, 0, traced, spanFile, t.TempDir(), tinySizes, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: present=%v unit=%q, want unit %q", d.Name, ok, got.Unit, d.Unit)
					}
				}
				if !strings.Contains(out.String(), "\ncorrect: true\n") {
					t.Errorf("readable output lacks the verdict:\n%s", out.String())
				}
				if !traced && !strings.Contains(out.String(), "\nundersized: true\n") {
					t.Errorf("a tiny run must be flagged undersized:\n%s", out.String())
				}
				if traced {
					if c := res.Metrics["trace.coverage"].Value; c <= 0 || c > 1.5 {
						t.Errorf("trace.coverage = %v: the directly measured rows should explain part of the outermost span, not several times it", c)
					}
					spans, err := readSpans(spanFile)
					if err != nil || len(spans) == 0 {
						t.Fatalf("span file: %d spans, err %v", len(spans), err)
					}
				}
			})
		}
	}
}

// TestUnknownWorkload pins the error for a name -list does not print.
func TestUnknownWorkload(t *testing.T) {
	if _, err := runWorkload("serve-nothing", 1, 0, false, "", t.TempDir(), tinySizes, io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestNames checks every workload and metric name against the
// benchmark contract's alphabet, and that none is used twice.
func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, wl := range workloads {
		check(wl.Name)
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better=%q", m.Name, m.Better)
		}
	}
}

// TestBenchmarkJSONMatchesList requires BENCHMARK.json to declare
// exactly what -list prints.
func TestBenchmarkJSONMatchesList(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if strings.Join(bf.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command = %v, want bash bench/run.sh", bf.Command)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if bf.Workloads[i].Name != wl.Name || bf.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q (or their reasons differ)", i, bf.Workloads[i].Name, wl.Name)
		}
		if len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: reason must be one line of at most 200 characters, has %d", wl.Name, len(wl.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, harness %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, harness %+v", i, got, m)
		}
	}
	var list bytes.Buffer
	printList(&list)
	for _, wl := range bf.Workloads {
		if !strings.Contains(list.String(), "\n  "+wl.Name+": "+wl.Why+"\n") {
			t.Errorf("-list does not print workload %s", wl.Name)
		}
	}
	for _, m := range bf.PerLayer {
		if !strings.Contains(list.String(), "\n  "+m.Name+" ") {
			t.Errorf("-list does not print metric %s", m.Name)
		}
	}
}

// TestSeedsReproduce: the same seed gives the same request stream and
// the same simulator inputs, digest and event count twice; another seed
// gives other inputs.
func TestSeedsReproduce(t *testing.T) {
	for _, mix := range [][]weight{mixRead, mixWrite, mixWrite0, mixWrite1} {
		a, b := streamHash(7, 0, mix, serveTiny, 500), streamHash(7, 0, mix, serveTiny, 500)
		if a != b {
			t.Errorf("request stream of seed 7 hashed %x then %x", a, b)
		}
		if c := streamHash(8, 0, mix, serveTiny, 500); c == a {
			t.Errorf("seeds 7 and 8 give the same request stream %x", a)
		}
	}
	if a, b := streamHash(7, 0, mixRead, serveTiny, 500), streamHash(7, 1, mixRead, serveTiny, 500); a == b {
		t.Errorf("clients 0 and 1 send the same stream %x", a)
	}
	for _, gen := range []func(int64) *simInputs{
		func(s int64) *simInputs { return genBacklog(s, backlogTiny) },
		func(s int64) *simInputs { return genMatch(s, matchTiny) },
	} {
		in := gen(7)
		if again, other := gen(7).hash(), gen(8).hash(); again != in.hash() || other == in.hash() {
			t.Errorf("%s: seed 7 hashed %x then %x; seed 8 %x", in.name, in.hash(), again, other)
		}
		var sums [2]uint64
		var events [2]int64
		for i := range sums {
			r, err := in.build(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.run(); err != nil {
				t.Fatal(err)
			}
			if sums[i], events[i], err = r.digest(); err != nil {
				t.Fatal(err)
			}
		}
		if sums[0] != sums[1] || events[0] != events[1] || events[0] == 0 {
			t.Errorf("%s: digests %x/%x, events %d/%d", in.name, sums[0], sums[1], events[0], events[1])
		}
	}
}

// TestSeedsOnlyReorder pins what keeps run-to-run spread down: every
// seed sends the same composition of requests in every hundred, and
// gives the simulator the same multiset of machines and jobs, in another
// order.
func TestSeedsOnlyReorder(t *testing.T) {
	for seed := int64(7); seed <= 8; seed++ {
		g := newOpGen(seed, 0, mixRead, serveTiny)
		for block := 0; block < 3; block++ {
			var n [numOpKinds]int
			for i := 0; i < 100; i++ {
				n[g.next().kind]++
			}
			for _, w := range mixRead {
				if n[w.kind] != w.pct {
					t.Errorf("seed %d, block %d: %d %s requests, want %d", seed, block, n[w.kind], opNames[w.kind], w.pct)
				}
			}
		}
	}
	multiset := func(in *simInputs) []string {
		var out []string
		for _, ms := range in.machines {
			for _, m := range ms {
				out = append(out, fmt.Sprintf("m %+v", m))
			}
		}
		for _, j := range in.jobs {
			j.pool, j.wave = 0, 0
			out = append(out, fmt.Sprintf("j %+v", j))
		}
		slices.Sort(out)
		return out
	}
	for _, gen := range []func(int64) *simInputs{
		func(s int64) *simInputs { return genBacklog(s, backlogTiny) },
		func(s int64) *simInputs { return genMatch(s, matchTiny) },
	} {
		if a, b := gen(7), gen(8); !slices.Equal(multiset(a), multiset(b)) {
			t.Errorf("%s: seeds 7 and 8 give different machines or jobs, not only another order", a.name)
		}
	}
}

// TestServeWriteDetectsLostUpdate makes sure the end-state check is not
// vacuous: a value changed behind the clients' backs counts as a failure.
func TestServeWriteDetectsLostUpdate(t *testing.T) {
	ctx := context.Background()
	s, err := setUp(ctx, true, 1, serveTiny, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close(ctx)
	if bad := s.d.checkFinal(ctx, 0, s.gens[0]); bad != 0 {
		t.Fatalf("%d differences right after warm-up", bad)
	}
	if err := s.d.g.Client(userOf(0)).SetState(ctx, keyName(0, 0), "clobbered"); err != nil {
		t.Fatal(err)
	}
	if bad := s.d.checkFinal(ctx, 0, s.gens[0]); bad != 1 {
		t.Fatalf("clobbered key gave %d differences, want 1", bad)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same ten numbers.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12, 3, 7, 9, 15, 1, 20, 4, 8, 11}
	q1, q3 := quartiles(xs)
	if q1 != 3.75 || q3 != 12.75 {
		t.Fatalf("quartiles = %v, %v; Python gives 3.75, 12.75", q1, q3)
	}
	if m := median(xs); m != 8.5 {
		t.Fatalf("median = %v, want 8.5", m)
	}
}
