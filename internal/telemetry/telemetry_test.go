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
	ring.Add(Span{Method: "m"})
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

func TestTraceRing(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		ring.Add(Span{Method: fmt.Sprintf("m%d", i), Start: time.Now()})
	}
	if got := ring.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	recent := ring.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent len = %d, want 4", len(recent))
	}
	// Newest first: m9, m8, m7, m6.
	for i, want := range []string{"m9", "m8", "m7", "m6"} {
		if recent[i].Method != want {
			t.Fatalf("recent[%d] = %s, want %s", i, recent[i].Method, want)
		}
	}
	if got := ring.Recent(2); len(got) != 2 || got[0].Method != "m9" {
		t.Fatalf("Recent(2) = %+v", got)
	}
}

func TestTraceHandler(t *testing.T) {
	ring := NewTraceRing(8)
	ring.Add(Span{Method: "scheduler.submit", RequestID: "r1", TotalMillis: 1.5,
		Stages: []Stage{{Name: "handler", Millis: 1.0}, {Name: "journal", Millis: 0.5}}})
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
