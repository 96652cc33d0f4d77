package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check and the
// tests read.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json in the working directory or,
// when run from bench/, one level up.
func readBenchmarkFile() (*benchmarkFile, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// selfCheck is the A/A check: for every workload (or only the named
// one), two interleaved sets of n untraced runs of this same binary. Run
// i of either set uses seed i+1, the way the driver repeats one list of
// seeds. For every end-to-end metric it prints both medians, both
// spreads (quartile distance over median) and the gap between the
// medians against the metric's bound, and fails when a gap or a spread
// exceeds the bound: a metric that noisy cannot tell a regression of
// that size from nothing.
func selfCheck(n, seconds int, only string, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	one := func(workload string, seed int) (map[string]metricValue, error) {
		cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
		}
		if !res.Correct || res.Failed != 0 {
			return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
		}
		return res.Metrics, nil
	}

	failed := false
	fmt.Fprintf(stdout, "A/A self-check: 2 interleaved sets of %d runs, %d s each\n", n, seconds)
	fmt.Fprintf(stdout, "%-12s %-12s %14s %14s %8s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "iqr A", "iqr B", "gap", "bound", "")
	for _, wl := range workloads {
		if only != "" && only != wl.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				m, err := one(wl.Name, i+1)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				for name, v := range m {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		for _, e := range bf.EndToEnd {
			a, b := sets[0][e.Name], sets[1][e.Name]
			ma, mb := median(a), median(b)
			spread := func(xs []float64, med float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / med
			}
			sa, sb := spread(a, ma), spread(b, mb)
			gap := math.Abs(mb-ma) / ma
			verdict := "ok"
			switch {
			case gap > e.Bound:
				verdict = "GAP EXCEEDS BOUND"
				failed = true
			case sa > e.Bound || sb > e.Bound:
				verdict = "SPREAD EXCEEDS BOUND"
				failed = true
			}
			fmt.Fprintf(stdout, "%-12s %-12s %14.6g %14.6g %7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.Name, e.Name, ma, mb, 100*sa, 100*sb, 100*gap, 100*e.Bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}
