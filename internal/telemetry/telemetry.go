// Package telemetry is the serving stack's self-observability layer: a
// dependency-free metrics registry (atomic counters, gauges, and
// fixed-bucket histograms with percentile snapshots) plus a ring buffer
// of per-RPC trace spans. The paper's GAE is above all a *monitored*
// grid — MonALISA-style visibility is a headline service — and this
// package turns that lens on the serving process itself: journal fsync
// batches, retry/breaker churn, negotiation pass cost, and dedup-window
// activity all become scrapeable families on /metrics.
//
// Design constraints, in order:
//
//   - Hot-path cost: instrumented code pre-resolves metric handles once
//     (a *Counter/*Histogram field, nil when telemetry is off) so the
//     per-operation cost is one nil check plus one atomic op. Registry
//     lookups never sit inside a serving or negotiation loop.
//   - No dependencies: everything is stdlib; the Prometheus text
//     rendering is hand-rolled against the exposition format.
//   - Concurrency: all metric mutation is lock-free (atomics); the
//     registry lock is taken only on handle resolution and snapshot.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for the value to stay monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value (bytes of last snapshot, queue depth).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Observations are counted
// into the first bucket whose upper bound is >= the value; the last
// implicit bucket is +Inf. Quantiles are estimated by linear
// interpolation inside the owning bucket, which is exact enough for the
// p50/p95/p99 summaries the snapshot carries as long as the bucket grid
// brackets the distribution (DefBuckets spans 50µs–10s for latencies).
type Histogram struct {
	bounds []float64      // ascending upper bounds, +Inf excluded
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefBuckets is the default latency grid in seconds: exponential from
// 50µs to ~10s, sized for the serving stack's RPC and fsync latencies.
var DefBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
	250e-3, 500e-3, 1, 2.5, 5, 10,
}

// SizeBuckets is a grid for byte and record counts: exponential from 64
// to ~16M.
var SizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216,
}

// CountBuckets is a small-integer grid (batch records, matches per
// pass).
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// quantileOf estimates the q-th quantile (0 < q < 1) of a histogram's
// bucket counts by interpolating inside the bucket holding the target
// rank. Values in the +Inf bucket clamp to the top finite bound.
func quantileOf(bounds []float64, counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: the best available answer is the top bound.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	return bounds[len(bounds)-1]
}

// kind tags what a family holds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one metric name: a kind, an optional label key, and the
// per-label-value instruments.
type family struct {
	name     string
	kind     string
	labelKey string
	metrics  map[string]any // label value ("" when unlabeled) -> instrument
}

// Registry owns a deployment's metric families. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use,
// and a nil *Registry is a valid no-op sink: every handle it returns is
// nil, and nil instruments swallow their operations.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// get resolves (or creates) the instrument for name/label. Kind and
// label-key conflicts are programmer errors and panic.
func (r *Registry) get(name, kind, labelKey, label string, make func() any) any {
	r.mu.RLock()
	f, ok := r.families[name]
	if ok {
		if m, ok := f.metrics[label]; ok {
			r.mu.RUnlock()
			return m
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok = r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, labelKey: labelKey, metrics: map[string]any{}}
		r.families[name] = f
	}
	if f.kind != kind || f.labelKey != labelKey {
		panic(fmt.Sprintf("telemetry: family %q redefined as %s{%s} (was %s{%s})", name, kind, labelKey, f.kind, f.labelKey))
	}
	m, ok := f.metrics[label]
	if !ok {
		m = make()
		f.metrics[label] = m
	}
	return m
}

// Counter resolves the unlabeled counter name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, kindCounter, "", "", func() any { return new(Counter) }).(*Counter)
}

// LabeledCounter resolves the counter name{key=label}. Every call for
// one family must use the same key.
func (r *Registry) LabeledCounter(name, key, label string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, kindCounter, key, label, func() any { return new(Counter) }).(*Counter)
}

// Gauge resolves the unlabeled gauge name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, kindGauge, "", "", func() any { return new(Gauge) }).(*Gauge)
}

// Histogram resolves the unlabeled histogram name with the given bucket
// bounds (nil selects DefBuckets). Bounds are fixed at first resolution.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, kindHistogram, "", "", func() any { return newHistogram(buckets) }).(*Histogram)
}

// LabeledHistogram resolves the histogram name{key=label}.
func (r *Registry) LabeledHistogram(name, key, label string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, kindHistogram, key, label, func() any { return newHistogram(buckets) }).(*Histogram)
}

// Metric is one instrument's state in a snapshot. Counters and gauges
// carry Value; histograms carry Count/Sum/quantile summaries plus the
// full bucket layout so scrapers can re-aggregate.
type Metric struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	LabelKey string  `json:"label_key,omitempty"`
	Label    string  `json:"label,omitempty"`
	Value    float64 `json:"value,omitempty"`

	Count  int64     `json:"count,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
	P50    float64   `json:"p50,omitempty"`
	P95    float64   `json:"p95,omitempty"`
	P99    float64   `json:"p99,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
}

// Snapshot is a point-in-time copy of every registered metric, sorted
// by (name, label). It is the unit /metrics serves and harnesses fold
// into their reports.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures every metric. A nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Metric
	for _, f := range r.families {
		for label, m := range f.metrics {
			met := Metric{Name: f.name, Kind: f.kind, LabelKey: f.labelKey, Label: label}
			switch v := m.(type) {
			case *Counter:
				met.Value = float64(v.Value())
			case *Gauge:
				met.Value = v.Value()
			case *Histogram:
				met.Count = v.Count()
				met.Sum = v.Sum()
				met.Bounds = v.bounds
				met.Counts = make([]int64, len(v.counts))
				var total int64
				for i := range v.counts {
					met.Counts[i] = v.counts[i].Load()
					total += met.Counts[i]
				}
				met.P50 = quantileOf(v.bounds, met.Counts, total, 0.50)
				met.P95 = quantileOf(v.bounds, met.Counts, total, 0.95)
				met.P99 = quantileOf(v.bounds, met.Counts, total, 0.99)
			}
			out = append(out, met)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Label < out[j].Label
	})
	return Snapshot{Metrics: out}
}

// Find returns the metric name{label} ("" label for unlabeled families).
func (s Snapshot) Find(name, label string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name && m.Label == label {
			return m, true
		}
	}
	return Metric{}, false
}

// Family returns every metric of one family, in label order.
func (s Snapshot) Family(name string) []Metric {
	var out []Metric
	for _, m := range s.Metrics {
		if m.Name == name {
			out = append(out, m)
		}
	}
	return out
}

// Value reads a counter or gauge value (0, false when absent).
func (s Snapshot) Value(name, label string) (float64, bool) {
	m, ok := s.Find(name, label)
	if !ok {
		return 0, false
	}
	return m.Value, true
}

// Total sums a family across labels: counter/gauge values plus
// histogram observation counts. It is what smoke checks use to decide a
// family is live.
func (s Snapshot) Total(name string) float64 {
	var t float64
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
		if m.Kind == kindHistogram {
			t += float64(m.Count)
		} else {
			t += m.Value
		}
	}
	return t
}
