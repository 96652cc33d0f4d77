package monalisa

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/simgrid"
)

var epoch = time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)

func TestPublishAndLatest(t *testing.T) {
	r := NewRepository()
	if _, ok := r.Latest("s", "LoadAvg"); ok {
		t.Fatal("empty repo returned a point")
	}
	r.Publish("s", "LoadAvg", epoch, 0.5)
	r.Publish("s", "LoadAvg", epoch.Add(time.Minute), 0.7)
	p, ok := r.Latest("s", "LoadAvg")
	if !ok || p.Value != 0.7 || !p.Time.Equal(epoch.Add(time.Minute)) {
		t.Fatalf("Latest = %+v, %v", p, ok)
	}
	if got := r.LatestValue("s", "LoadAvg", -1); got != 0.7 {
		t.Fatalf("LatestValue = %v", got)
	}
	if got := r.LatestValue("s", "Missing", -1); got != -1 {
		t.Fatalf("LatestValue default = %v", got)
	}
}

func TestSeriesWindow(t *testing.T) {
	r := NewRepository()
	for i := 0; i < 10; i++ {
		r.Publish("s", "m", epoch.Add(time.Duration(i)*time.Second), float64(i))
	}
	pts := r.Series("s", "m", epoch.Add(3*time.Second), epoch.Add(6*time.Second))
	if len(pts) != 4 || pts[0].Value != 3 || pts[3].Value != 6 {
		t.Fatalf("Series = %+v", pts)
	}
	if got := r.Series("s", "m", epoch.Add(time.Hour), epoch.Add(2*time.Hour)); len(got) != 0 {
		t.Fatalf("out-of-window series = %v", got)
	}
}

func TestSeriesCapBounded(t *testing.T) {
	r := NewRepository()
	n := seriesCap + 5
	for i := 0; i < n; i++ {
		r.Publish("s", "m", epoch.Add(time.Duration(i)*time.Second), float64(i))
	}
	pts := r.Series("s", "m", epoch, epoch.Add(24*time.Hour))
	if len(pts) != seriesCap {
		t.Fatalf("retained %d points, want %d", len(pts), seriesCap)
	}
	if pts[0].Value != 5 || pts[seriesCap-1].Value != float64(n-1) {
		t.Fatalf("kept wrong window: first %v, last %v", pts[0], pts[seriesCap-1])
	}
	if p, _ := r.Latest("s", "m"); p.Value != float64(n-1) {
		t.Fatalf("Latest after trimming = %+v", p)
	}
}

func TestEventsFilteredBySinceAndSource(t *testing.T) {
	r := NewRepository()
	r.PublishEvent(epoch, "poolA/job1", "status", "idle->running")
	r.PublishEvent(epoch.Add(time.Minute), "poolA/job1", "status", "running->completed")
	r.PublishEvent(epoch.Add(time.Minute), "poolB/job2", "status", "idle->running")
	all := r.Events(epoch, "")
	if len(all) != 3 {
		t.Fatalf("all events = %d", len(all))
	}
	onlyA := r.Events(epoch, "poolA/job1")
	if len(onlyA) != 2 {
		t.Fatalf("filtered events = %d", len(onlyA))
	}
	late := r.Events(epoch.Add(30*time.Second), "")
	if len(late) != 2 {
		t.Fatalf("since-filtered events = %d", len(late))
	}
}

func TestEventCapBounded(t *testing.T) {
	r := NewRepository(WithEventCap(3))
	for i := 0; i < 10; i++ {
		r.PublishEvent(epoch.Add(time.Duration(i)*time.Second), "s", "k", "d")
	}
	if got := len(r.Events(epoch, "")); got != 3 {
		t.Fatalf("retained %d events, want 3", got)
	}
}

func TestMetricsSorted(t *testing.T) {
	r := NewRepository()
	r.Publish("b", "y", epoch, 1)
	r.Publish("a", "z", epoch, 1)
	r.Publish("a", "x", epoch, 1)
	ms := r.Metrics()
	if len(ms) != 3 {
		t.Fatalf("Metrics = %v", ms)
	}
	want := []Metric{{"a", "x"}, {"a", "z"}, {"b", "y"}}
	for i := range want {
		if ms[i] != want[i] {
			t.Fatalf("Metrics = %v, want %v", ms, want)
		}
	}
	if ms[0].String() != "a/x" {
		t.Fatalf("Metric.String = %q", ms[0].String())
	}
}

func TestFarmMonitorPublishesSiteWeather(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	sa := g.AddSite("siteA")
	sb := g.AddSite("siteB")
	sa.AddNode(g.Engine, "a1", 1, simgrid.ConstantLoad(0.6))
	sa.AddNode(g.Engine, "a2", 1, simgrid.ConstantLoad(0.2))
	sb.AddNode(g.Engine, "b1", 1, simgrid.IdleLoad())

	r := NewRepository()
	NewFarmMonitor(r, g, 10*time.Second)

	// Initial sample exists before any tick.
	if got := r.LatestValue("siteA", MetricLoadAvg, -1); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("initial siteA load = %v", got)
	}

	// Occupy siteB's node and advance past one interval.
	sb.Nodes()[0].Place(simgrid.NewTask(1000, nil))
	g.Engine.RunFor(11 * time.Second)

	if got := r.LatestValue("siteB", MetricRunningJobs, -1); got != 1 {
		t.Fatalf("siteB running jobs = %v", got)
	}
	if got := r.LatestValue("siteB", MetricFreeNodes, -1); got != 0 {
		t.Fatalf("siteB free nodes = %v", got)
	}
	if got := r.LatestValue("siteA", MetricFreeNodes, -1); got != 2 {
		t.Fatalf("siteA free nodes = %v", got)
	}

	// Series accumulates over time.
	g.Engine.RunFor(50 * time.Second)
	pts := r.Series("siteA", MetricLoadAvg, epoch, epoch.Add(2*time.Minute))
	if len(pts) < 5 {
		t.Fatalf("series has %d points", len(pts))
	}
}

func TestFarmMonitorDefaultInterval(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	g.AddSite("s")
	r := NewRepository()
	m := NewFarmMonitor(r, g, 0)
	if m.interval != 30*time.Second {
		t.Fatalf("default interval = %v", m.interval)
	}
}

func TestFormatJobSource(t *testing.T) {
	if got := FormatJobSource("poolA", 7); got != "poolA/job7" {
		t.Fatalf("FormatJobSource = %q", got)
	}
}

// TestConcurrentPublishers: publishers and readers on goroutines of their
// own take turns through one lock, as a deployment's callers take turns
// through its owner's, and every point published lands in the series.
func TestConcurrentPublishers(t *testing.T) {
	r := NewRepository()
	var owner sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				owner.Lock()
				r.Publish("s", "m", epoch.Add(time.Duration(j)*time.Second), float64(i))
				r.PublishEvent(epoch, "s", "k", "d")
				r.Latest("s", "m")
				r.Metrics()
				owner.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if n := len(r.Series("s", "m", epoch, epoch.Add(time.Hour))); n != 800 {
		t.Fatalf("points = %d, want 800", n)
	}
}
