// Command bench is the repository's benchmark: four workloads over the
// serving stack and the simulator, end-to-end metrics from an untraced
// run and per-layer metrics from a traced one. See README.md beside
// this file; BENCHMARK.json at the repository root names the command.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sizes selects the benchmark's sizes or the tests' tiny ones.
type sizes struct {
	serve          serveSize
	backlog, match simSize
	calibPasses    int // kernel passes per timing of the box (see calib.go)
}

var (
	fullSizes = sizes{serve: serveFull, backlog: backlogFull, match: matchFull, calibPasses: 8}
	tinySizes = sizes{serve: serveTiny, backlog: backlogTiny, match: matchTiny, calibPasses: 1}
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (see -list)")
		seed    = fs.Int64("seed", 1, "seed of the workload's input generators")
		seconds = fs.Int("seconds", 20, "length of the timed phase")
		trace   = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		spans   = fs.String("spans", "", "with -trace 1: write the spans to this file")
		aa      = fs.Int("aa", 0, "A/A self-check: two interleaved sets of this many runs per workload")
		list    = fs.Bool("list", false, "print the workload and metric names")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *aa > 0:
		return selfCheck(*aa, *seconds, *name, stdout, stderr)
	}
	res, err := runWorkload(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans, journalRoot, fullSizes, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %s: %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end_to_end:")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %s %s %s\n", m.Name, m.Unit, m.Better)
	}
	fmt.Fprintln(w, "per_layer:")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %s %s %s -> %s\n", m.Name, m.Unit, m.Better, m.Moves)
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// journalRoot is where the serving workloads keep their journals, under
// the working directory, which run.sh makes the root of the checkout.
const journalRoot = ".bench_build/journals"

// fsKind tells whether dir is on tmpfs. run.sh mounts one over
// journalRoot where it may, so that the journal's fsyncs, which the
// serving workloads leave exactly as the program issues them, do not
// wait for a disk this program does not own.
func fsKind(dir string) string {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if st.Type == tmpfsMagic {
		return "tmpfs"
	}
	return "disk"
}

// onTmpfs is fsKind as a metric: 1 on tmpfs, 0 otherwise.
func onTmpfs(dir string) float64 {
	if fsKind(dir) == "tmpfs" {
		return 1
	}
	return 0
}

// runWorkload runs one workload once, prints what it measured to out in
// readable form, and returns the result line.
func runWorkload(name string, seed int64, budget time.Duration, traced bool, spanFile, scratch string, sz sizes, out io.Writer) (*result, error) {
	sensitivity := 0.0
	for _, wl := range workloads {
		if wl.Name == name {
			sensitivity = wl.Sensitivity
		}
	}
	if sensitivity == 0 {
		return nil, fmt.Errorf("unknown workload %q (see -list)", name)
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	fmt.Fprintf(out, "workload: %s\nseed: %d\nseconds: %g\ntraced: %v\n", name, seed, budget.Seconds(), traced)
	ctx := context.Background()
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := newReport(defs)
	res := &result{}
	cal := newCalibrator(sz.calibPasses, sensitivity)
	var recorded []span

	switch name {
	case "serve-read", "serve-write":
		write := name == "serve-write"
		fmt.Fprintf(out, "clients: %d closed-loop, one keep-alive connection each\njournal_dir: %s\njournal_fs: %s\n", clients, runDir, fsKind(runDir))
		// A traced run sets up once: it reports no setup_s, and its
		// two-client phase, which gives the latency percentiles and the
		// durable counters, is as long as an untraced run's.
		passes := setupPasses
		if traced {
			passes = 1
		}
		sr, err := runServe(ctx, write, seed, sz.serve, runDir, passes, sz.serve.segments(write, budget.Seconds()), cal)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = sr.attempted, sr.failed
		fmt.Fprintf(out, "latency_samples: %d\nlat_p50_us: %.1f\nlat_p99_us: %.1f\nby_op (warm-up included):\n%s", len(sr.lat), percentileUS(sr.lat, 0.50), percentileUS(sr.lat, 0.99), sr.byKind)
		if write {
			fmt.Fprintf(out, "checkpoints: %d\nstate_bytes: %d\nrecovered_byte_identical: %v (%d journal ops replayed in %.3fs)\n", sr.checkpoints, sr.stateBytes, sr.recovered, sr.recoverOps, sr.recoverWall.Seconds())
		}
		if traced {
			if recorded, err = traceServe(ctx, write, seed, sz.serve, runDir, sr, rep); err != nil {
				return nil, err
			}
		} else {
			setTimings(out, rep, cal, sr.setups, sr.rate, sr.timed)
			rep.set("peak_rss_mb", sr.peakRSS)
		}
	default:
		in := genBacklog(seed, sz.backlog)
		if name == "sim-match" {
			in = genMatch(seed, sz.match)
		}
		fmt.Fprintf(out, "inputs_hash: %016x\n", in.hash())
		if traced {
			if recorded, err = traceSim(in, rep); err != nil {
				return nil, err
			}
			rep.idle("gae", "net", "xmlrpc", "clarens", "core", "steering", "jobmon", "estimator", "scheduler", "monalisa", "quota", "durable")
			res.Attempted = len(in.jobs)
		} else {
			sr, err := runSim(in, in.size.cycles(budget.Seconds()), cal)
			if err != nil {
				return nil, err
			}
			res.Attempted, res.Failed = sr.attempted, sr.failed
			fmt.Fprintf(out, "cycles: %d\ndigest: %016x\nevents: %d\n", len(sr.setups.measured), sr.digest, sr.events)
			setTimings(out, rep, cal, sr.setups, sr.rates, sr.timed)
			rss, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			rep.set("peak_rss_mb", rss)
		}
	}
	if spanFile != "" && traced {
		if err := writeSpans(spanFile, recorded); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(recorded), spanFile)
	}
	if err := rep.check(); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "metrics:\n%s", rep.table())
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "attempted: %d\nfailed: %d\ncorrect: %v\n", res.Attempted, res.Failed, res.Correct)
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: rep.vals[d.Name], Unit: d.Unit}
	}
	return res, nil
}

// setTimings reports the two timing metrics of an untraced run, the
// median of its set-up samples and of its rate samples as scaled to the
// reference box (see calib.go), and prints what the clock read beside
// them. It also flags a run too short to measure: a later speed-up that
// shrinks a run below these sizes calls for re-sizing the benchmark, not
// for reading the number.
func setTimings(out io.Writer, rep *report, cal *calibrator, setups, rates samples, timed time.Duration) {
	setup := median(setups.measured)
	fmt.Fprintf(out, "box_slowness: %.4f (median of %d kernel passes over the reference's %g ms; the workload's sensitivity to it is %g)\n", median(cal.ms)/calibRefMS, len(cal.ms), calibRefMS, cal.sensitivity)
	fmt.Fprintf(out, "measured_setup_s: %.6g of %.3f\nmeasured_work_per_s: %.6g of %.0f\n", setup, setups.measured, median(rates.measured), rates.measured)
	rep.set("setup_s", median(setups.scaled))
	rep.set("work_per_s", median(rates.scaled))
	fmt.Fprintf(out, "timed_s: %.3f\nundersized: %v\n", timed.Seconds(), setup < 0.25 || timed < 10*time.Second)
}
