// Package monalisa reproduces the slice of the MonALISA distributed
// monitoring service that the GAE paper depends on.
//
// Two interactions matter in the paper: the Job Monitoring Service's
// DBManager "publishes the job monitoring information to MonALISA"
// whenever a job changes state, and the scheduler "contact[s] the
// MonALISA repository to get the status of load at execution sites"
// before placing a task. This package provides both: a time-series metric
// repository that services publish to and query, and a farm monitor that
// samples site load from the simulated grid on a fixed interval.
//
// The repository is bounded: each series keeps its last 4096 points, and
// the event log its last 65536 events unless WithEventCap says fewer.
package monalisa

import (
	"fmt"
	"sort"
	"time"
)

// Metric identifies one monitored series: a source (farm, site, or service
// name) and a parameter name, e.g. {"siteA", "LoadAvg"}.
type Metric struct {
	Source string
	Name   string
}

func (m Metric) String() string { return m.Source + "/" + m.Name }

// Point is one sample in a series.
type Point struct {
	Time  time.Time
	Value float64
}

// Event is a discrete annotation, such as a job state change.
type Event struct {
	Time   time.Time
	Source string
	Kind   string
	Detail string
}

// Repository is the MonALISA store: bounded time series plus an event log.
type Repository struct {
	series    map[Metric][]Point
	events    []Event
	maxEvents int
}

// Option configures a Repository.
type Option func(*Repository)

// WithEventCap bounds the retained event log length.
func WithEventCap(n int) Option {
	return func(r *Repository) {
		if n > 0 {
			r.maxEvents = n
		}
	}
}

// seriesCap is how many points a series retains.
const seriesCap = 4096

// NewRepository creates an empty repository. The default event cap keeps
// the last 65536 events.
func NewRepository(opts ...Option) *Repository {
	r := &Repository{
		series:    make(map[Metric][]Point),
		maxEvents: 65536,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Publish appends a sample to the metric's series.
func (r *Repository) Publish(source, name string, t time.Time, v float64) {
	m := Metric{Source: source, Name: name}
	s := append(r.series[m], Point{Time: t, Value: v})
	if len(s) > seriesCap {
		s = s[len(s)-seriesCap:]
	}
	r.series[m] = s
}

// PublishEvent appends a discrete event (e.g. a job status transition).
func (r *Repository) PublishEvent(t time.Time, source, kind, detail string) {
	r.events = append(r.events, Event{Time: t, Source: source, Kind: kind, Detail: detail})
	if len(r.events) > r.maxEvents {
		r.events = r.events[len(r.events)-r.maxEvents:]
	}
}

// Latest returns the most recent sample of the metric: the tail of its
// series, one map lookup.
func (r *Repository) Latest(source, name string) (Point, bool) {
	s := r.series[Metric{Source: source, Name: name}]
	if len(s) == 0 {
		return Point{}, false
	}
	return s[len(s)-1], true
}

// LatestValue returns the most recent value, or def when the series is
// empty — the "best effort" read the scheduler performs.
func (r *Repository) LatestValue(source, name string, def float64) float64 {
	p, ok := r.Latest(source, name)
	if !ok {
		return def
	}
	return p.Value
}

// Series returns the samples of a metric within [from, to], inclusive.
func (r *Repository) Series(source, name string, from, to time.Time) []Point {
	s := r.series[Metric{Source: source, Name: name}]
	out := make([]Point, 0, len(s))
	for _, p := range s {
		if !p.Time.Before(from) && !p.Time.After(to) {
			out = append(out, p)
		}
	}
	return out
}

// Metrics lists every known metric, sorted by source then name.
func (r *Repository) Metrics() []Metric {
	out := make([]Metric, 0, len(r.series))
	for m := range r.series {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Events returns events since t (inclusive), optionally filtered by source
// ("" matches all).
func (r *Repository) Events(since time.Time, source string) []Event {
	var out []Event
	for _, e := range r.events {
		if e.Time.Before(since) {
			continue
		}
		if source != "" && e.Source != source {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Conventional metric names used across the GAE services.
const (
	MetricLoadAvg     = "LoadAvg"     // site mean background load [0,1]
	MetricRunningJobs = "RunningJobs" // running task count at a site
	MetricFreeNodes   = "FreeNodes"   // nodes with no placed task
	MetricJobProgress = "JobProgress" // per-job completion fraction
	MetricQueuedJobs  = "QueuedJobs"  // idle job count at a pool
)

// FormatJobSource builds the per-job metric source name.
func FormatJobSource(pool string, jobID int) string {
	return fmt.Sprintf("%s/job%d", pool, jobID)
}
