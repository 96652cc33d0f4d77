package main

import (
	"fmt"
	"sort"
	"strings"
)

// metric declares one benchmark metric. The end-to-end and per-layer
// lists below are the single source of the names: BENCHMARK.json must
// equal them (a test compares), a run may only set a declared name, and
// a run that leaves a declared name unset fails.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Moves names the end-to-end metric and workload a per-layer metric
	// is predicted to move (empty for end-to-end metrics).
	Moves string
}

// layer returns the module a per-layer metric belongs to: the part of
// its name before the first dot.
func (m metric) layer() string {
	l, _, _ := strings.Cut(m.Name, ".")
	return l
}

// workloads lists the workloads. Sensitivity is how many per cent the
// workload slows down for each per cent the calibration kernel does
// (calib.go), measured as the slope of log rate on log kernel time over
// 26 runs of each workload spread over three disturbed hours: the
// ClassAd scan of sim-match suffers half as much again from a busy
// neighbour as the kernel does, the journal and the event loop a little
// less.
var workloads = []struct {
	Name, Why   string
	Sensitivity float64
}{
	{"serve-read", "watching jobs and grid weather: 2 closed-loop XML-RPC clients issue monitoring reads, so xmlrpc, clarens, gae and the read handlers do all the work and the journal does none", 1},
	{"serve-write", "steering a running analysis: the same wire stack with every op journaled, fsynced and request-ID stamped, so core.journalCall, durable and the idempotency window carry the extra cost", 0.85},
	{"sim-backlog", "100k jobs queued up front on 10k idle machines with no Requirements: event heap, node settle, harvest and the negotiation stream do the work, ClassAd matching almost none", 0.85},
	{"sim-match", "9k jobs with Requirements and Rank arriving in 60 waves on 2k heterogeneous machines: the negotiator's ClassAd Match/Rank scan dominates and Submit is inside the timed region", 1.4},
}

var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "work_per_s", Unit: "1/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

const (
	movesWire    = "work_per_s on serve-read (largest share) and serve-write; none on sim-*"
	movesApply   = "work_per_s on serve-read"
	movesWrite   = "work_per_s on serve-write"
	movesJournal = "work_per_s on serve-write only; none on serve-read"
	movesBacklog = "work_per_s and peak_rss_mb on sim-backlog; little on sim-match"
	movesMatch   = "work_per_s on sim-match; none on sim-backlog"
	movesSubmit  = "setup_s on sim-backlog but work_per_s on sim-match"
	movesNone    = "no end-to-end metric (diagnostic)"
)

var perLayer = []metric{
	{"gae.call_us", "us", "lower", movesWire},
	{"gae.self_us", "us", "lower", movesWire},
	{"gae.lat_p50_us", "us", "lower", movesWire},
	{"gae.lat_p99_us", "us", "lower", "the tail users feel on serve-*; durable.checkpoint_* on serve-write"},
	{"gae.retries", "count", "lower", movesNone},
	{"net.self_us", "us", "lower", movesWire},
	{"xmlrpc.encode_request_us", "us", "lower", movesWire},
	{"xmlrpc.decode_request_us", "us", "lower", movesWire},
	{"xmlrpc.encode_response_us", "us", "lower", movesWire},
	{"xmlrpc.decode_response_us", "us", "lower", movesWire},
	{"xmlrpc.request_bytes", "B", "lower", movesWire},
	{"xmlrpc.response_bytes", "B", "lower", movesWire},
	{"clarens.serve_us", "us", "lower", movesWire},
	{"clarens.self_us", "us", "lower", movesWire},
	{"core.call_us", "us", "lower", "work_per_s on serve-read and serve-write"},
	{"core.apply_us", "us", "lower", movesApply},
	{"core.handler_us", "us", "lower", movesWrite},
	{"core.journal_us", "us", "lower", movesJournal},
	{"core.mallocs_per_rpc", "count", "lower", movesWire},
	{"core.idem_hits", "count", "lower", movesNone},
	{"steering.apply_us", "us", "lower", "work_per_s on serve-read (TaskStatus) and serve-write (SetPriority, Pause, Resume, Kill)"},
	{"jobmon.apply_us", "us", "lower", movesApply},
	{"estimator.apply_us", "us", "lower", movesApply},
	{"scheduler.submit_us", "us", "lower", movesWrite},
	{"monalisa.weather_us", "us", "lower", movesApply},
	{"quota.charge_us", "us", "lower", movesWrite},
	{"durable.append_us", "us", "lower", movesJournal},
	{"durable.fsync_us", "us", "lower", movesJournal},
	{"durable.batch_records", "count", "higher", movesJournal},
	{"durable.journal_bytes_per_op", "B", "lower", movesJournal},
	{"durable.checkpoint_ms", "ms", "lower", "gae.lat_p99_us on serve-write once state grows"},
	{"durable.checkpoint_bytes", "B", "lower", "gae.lat_p99_us on serve-write once state grows"},
	{"durable.checkpoint_stall_us", "us", "lower", "gae.lat_p99_us on serve-write once state grows"},
	{"durable.recover_ops_per_s", "1/s", "higher", "none (outside the timed phase); tracked for ROADMAP item 3"},
	{"durable.journal_tmpfs", "count", "higher", "1 when the journals are on tmpfs; at 0 serve-write measures the disk and compares with no tmpfs run"},
	{"simgrid.build_s", "s", "lower", "setup_s on sim-*"},
	{"simgrid.run_s", "s", "lower", "work_per_s on sim-*"},
	{"simgrid.events", "count", "lower", movesBacklog},
	{"simgrid.ns_per_event", "ns", "lower", movesBacklog},
	{"simgrid.self_s", "s", "lower", movesBacklog},
	{"simgrid.mallocs_per_job", "count", "lower", movesBacklog},
	{"simgrid.alloc_mb", "MB", "lower", movesBacklog},
	{"simgrid.gc_cpu_share", "share", "lower", movesBacklog},
	{"condor.submit_us", "us", "lower", movesSubmit},
	{"condor.wakes", "count", "lower", "work_per_s on sim-*"},
	{"condor.passes", "count", "lower", "work_per_s on sim-*"},
	{"condor.matches", "count", "higher", movesNone},
	{"condor.negotiate_busy_s", "s", "lower", movesMatch},
	{"condor.matches_per_pass", "count", "higher", "work_per_s on sim-*"},
	{"condor.jobs_query_ms", "ms", "lower", "none here; the path jobmon polls"},
	{"classad.compile_us", "us", "lower", movesSubmit},
	{"classad.match_ns", "ns", "lower", movesMatch},
	{"classad.rank_ns", "ns", "lower", movesMatch},
	{"classad.match_true_share", "share", "higher", movesNone},
	{"fairshare.record_usage_ns", "ns", "lower", "work_per_s on sim-*, small"},
	{"fairshare.effective_priority_ns", "ns", "lower", "work_per_s on sim-*, small"},
	{"fairshare.sort_keys_us", "us", "lower", "work_per_s on sim-*, small"},
	{"trace.overhead_share", "share", "lower", movesNone},
	{"trace.coverage", "share", "higher", movesNone},
}

// report collects one run's metric values against a declared list.
type report struct {
	defs []metric
	vals map[string]float64
	errs []string
}

func newReport(defs []metric) *report {
	return &report{defs: defs, vals: make(map[string]float64, len(defs))}
}

// set records a value. An undeclared name or a second value for one
// name is remembered and fails the run in check.
func (r *report) set(name string, v float64) {
	if _, dup := r.vals[name]; dup {
		r.errs = append(r.errs, "metric set twice: "+name)
		return
	}
	for _, d := range r.defs {
		if d.Name == name {
			r.vals[name] = v
			return
		}
	}
	r.errs = append(r.errs, "undeclared metric: "+name)
}

// idle records zero for every metric of the named layers: the workload
// does not load them, and saying so is part of the separation the
// workloads were chosen for.
func (r *report) idle(layers ...string) {
	for _, d := range r.defs {
		for _, l := range layers {
			if d.layer() == l {
				r.set(d.Name, 0)
			}
		}
	}
}

// check returns an error unless every declared metric was set exactly
// once and nothing undeclared was set.
func (r *report) check() error {
	errs := append([]string(nil), r.errs...)
	for _, d := range r.defs {
		if _, ok := r.vals[d.Name]; !ok {
			errs = append(errs, "metric not set: "+d.Name)
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

// table renders the values in declaration order, one metric per line.
func (r *report) table() string {
	var b strings.Builder
	for _, d := range r.defs {
		fmt.Fprintf(&b, "  %-32s %14.6g %-6s (%s is better)\n", d.Name, r.vals[d.Name], d.Unit, d.Better)
	}
	return b.String()
}

// median returns the middle value of xs (mean of the two middle values
// for an even count, 0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the driver applies to the ten values of a metric.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
