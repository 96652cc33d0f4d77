package telemetry

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	g := r.Gauge("depth")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
			g.Set(42)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge = %v, want 42", got)
	}
	// Resolving the same name yields the same instrument.
	if r.Counter("ops_total") != c {
		t.Fatal("re-resolved counter is a different instrument")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	r.Gauge("y").Set(1)
	r.Histogram("z", nil).Observe(0.5)
	var ring *TraceRing
	dropped := OpenSpan{Span: Span{Method: "m"}, Ring: ring}
	dropped.Open()
	dropped.Close()
	if got := ring.Recent(10); got != nil {
		t.Fatalf("nil ring Recent = %v, want nil", got)
	}
	if snap := r.Snapshot(); len(snap.Metrics) != 0 {
		t.Fatalf("nil registry snapshot has %d metrics", len(snap.Metrics))
	}
}

// snapshotOf is the histogram's state as a Snapshot reports it.
func snapshotOf(t *testing.T, r *Registry, name string) Metric {
	t.Helper()
	m, ok := r.Snapshot().Find(name, "")
	if !ok {
		t.Fatalf("%s missing from snapshot", name)
	}
	return m
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4, 8, 16})
	// 100 observations uniform over (0, 10].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 10)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if got, want := h.Sum(), 505.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// p50 of uniform(0,10] is 5; bucket (4,8] interpolation should land
	// within the bucket.
	m := snapshotOf(t, r, "h")
	p50, p99 := m.P50, m.P99
	if p50 < 4 || p50 > 8 {
		t.Fatalf("p50 = %v, want within (4,8]", p50)
	}
	if p99 < 8 || p99 > 16 {
		t.Fatalf("p99 = %v, want within (8,16]", p99)
	}
	if p50 >= p99 {
		t.Fatalf("p50 %v >= p99 %v", p50, p99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1, 2}).Observe(100)
	if got := snapshotOf(t, r, "h").P99; got != 2 {
		t.Fatalf("overflow quantile = %v, want top bound 2", got)
	}
}

func TestSnapshotAndQueries(t *testing.T) {
	r := NewRegistry()
	r.LabeledCounter("rpc_requests_total", "method", "scheduler.submit").Add(3)
	r.LabeledCounter("rpc_requests_total", "method", "state.set").Add(5)
	r.Histogram("lat_seconds", nil).Observe(0.01)
	snap := r.Snapshot()
	if v, ok := snap.Value("rpc_requests_total", "state.set"); !ok || v != 5 {
		t.Fatalf("Value = %v,%v want 5,true", v, ok)
	}
	if got := snap.Total("rpc_requests_total"); got != 8 {
		t.Fatalf("Total = %v, want 8", got)
	}
	if got := snap.Total("lat_seconds"); got != 1 {
		t.Fatalf("histogram Total = %v, want 1 observation", got)
	}
	fam := snap.Family("rpc_requests_total")
	if len(fam) != 2 || fam[0].Label != "scheduler.submit" {
		t.Fatalf("Family = %+v, want 2 sorted metrics", fam)
	}
}

func TestHandlerFormats(t *testing.T) {
	r := NewRegistry()
	r.LabeledCounter("rpc_requests_total", "method", "state.set").Add(2)
	r.Histogram("rpc_latency_seconds", []float64{0.1, 1}).Observe(0.05)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		"# TYPE rpc_requests_total counter",
		`rpc_requests_total{method="state.set"} 2`,
		"# TYPE rpc_latency_seconds histogram",
		`rpc_latency_seconds_bucket{le="0.1"} 1`,
		`rpc_latency_seconds_bucket{le="+Inf"} 1`,
		"rpc_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, body)
		}
	}

	jbody := get(t, srv.URL+"/metrics?format=json")
	snap, err := ParseJSON(strings.NewReader(jbody))
	if err != nil {
		t.Fatalf("ParseJSON: %v", err)
	}
	if v, ok := snap.Value("rpc_requests_total", "state.set"); !ok || v != 2 {
		t.Fatalf("scraped Value = %v,%v want 2,true", v, ok)
	}
	m, ok := snap.Find("rpc_latency_seconds", "")
	if !ok || m.Count != 1 || len(m.Bounds) != 2 {
		t.Fatalf("scraped histogram = %+v", m)
	}
}

func TestScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("journal_appends_total").Add(7)
	mux := httptest.NewServer(Handler(r))
	defer mux.Close()
	// Scrape appends /metrics?format=json itself; serve under any path.
	snap, err := Scrape(context.Background(), mux.URL)
	if err != nil {
		t.Fatalf("Scrape: %v", err)
	}
	if v, _ := snap.Value("journal_appends_total", ""); v != 7 {
		t.Fatalf("scraped value = %v, want 7", v)
	}
}

// closeSpan adds a span of method to ring, with one stage per name.
func closeSpan(ring *TraceRing, method string, stages ...string) {
	o := OpenSpan{Span: Span{Method: method}, Ring: ring}
	o.Open()
	for _, st := range stages {
		o.Mark(st)
	}
	o.Close()
}

func TestTraceRing(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		closeSpan(ring, fmt.Sprintf("m%d", i), fmt.Sprintf("s%d", i))
	}
	if got := ring.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	recent := ring.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent len = %d, want 4", len(recent))
	}
	// Newest first: m9, m8, m7, m6, each with its own stage.
	for i, want := range []string{"9", "8", "7", "6"} {
		if recent[i].Method != "m"+want || len(recent[i].Stages) != 1 || recent[i].Stages[0].Name != "s"+want {
			t.Fatalf("recent[%d] = %+v, want m%s with stage s%s", i, recent[i], want, want)
		}
	}
	if got := ring.Recent(2); len(got) != 2 || got[0].Method != "m9" {
		t.Fatalf("Recent(2) = %+v", got)
	}
	// What Recent returned is a copy: later adds overwrite the ring's
	// slots, not it.
	closeSpan(ring, "m10", "s10")
	if recent[3].Method != "m6" || recent[3].Stages[0].Name != "s6" {
		t.Fatalf("an add changed a span Recent returned before: %+v", recent[3])
	}
}

// TestOpenSpanStagesMeet: the stages of a closed span are in the order
// they were marked, non-negative, and add up to its total; an open span
// that is marked and closed allocates nothing, and closes once.
func TestOpenSpanStagesMeet(t *testing.T) {
	ring := NewTraceRing(8)
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	o := OpenSpan{Span: Span{Method: "m"}, Ring: ring}
	o.Open()
	for _, name := range names {
		time.Sleep(100 * time.Microsecond)
		o.Mark(name)
	}
	o.Close()
	o.Close()
	if ring.Total() != 1 {
		t.Fatalf("%d spans after two closes, want 1", ring.Total())
	}
	sp := ring.Recent(0)[0]
	var sum float64
	for i, st := range sp.Stages {
		if st.Name != names[i] || st.Millis < 0 {
			t.Fatalf("stage %d = %+v, want %s, non-negative", i, st, names[i])
		}
		sum += st.Millis
	}
	if len(sp.Stages) != len(names) || sp.TotalMillis < 0.7 || math.Abs(sum-sp.TotalMillis) > 1e-9 {
		t.Fatalf("stages %+v sum to %v ms, total %v ms", sp.Stages, sum, sp.TotalMillis)
	}
	if n := testing.AllocsPerRun(100, func() {
		o := OpenSpan{Span: Span{Method: "m"}, Ring: ring}
		o.Open()
		for _, name := range names {
			o.Mark(name)
		}
		o.Close()
	}); n != 0 {
		t.Fatalf("timing a span: %v allocations, want 0", n)
	}
}

func TestTraceHandler(t *testing.T) {
	ring := NewTraceRing(8)
	o := OpenSpan{Span: Span{Method: "scheduler.submit", RequestID: "r1"}, Ring: ring}
	o.Open()
	o.Mark("handler")
	o.Mark("journal")
	o.Close()
	srv := httptest.NewServer(TraceHandler(ring))
	defer srv.Close()
	body := get(t, srv.URL+"/debug/rpcs?limit=5")
	for _, want := range []string{`"scheduler.submit"`, `"r1"`, `"journal"`, `"total": 1`} {
		if !strings.Contains(body, want) {
			t.Fatalf("trace JSON missing %q:\n%s", want, body)
		}
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d:\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}
