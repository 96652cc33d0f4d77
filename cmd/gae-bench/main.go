// Command gae-bench regenerates every measured artifact of the paper's
// evaluation section and renders it as CSV and an ASCII chart.
//
//	gae-bench -fig 5         # runtime-estimator accuracy (Figure 5)
//	gae-bench -fig 6         # job-monitoring response times (Figure 6)
//	gae-bench -fig 7         # steering rescue (Figure 7)
//	gae-bench -fig all -out results/
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("gae-bench: %v", err)
	}
}

// run is the whole command: args are its arguments, without the
// program name.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gae-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig   = fs.String("fig", "all", "figure to regenerate: 5, 6, 7, or all")
		out   = fs.String("out", "", "directory to write CSV files (stdout only if empty)")
		chart = fs.Bool("chart", true, "render ASCII charts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	runs := map[string]func() (*experiments.Table, error){
		"5": func() (*experiments.Table, error) {
			r, err := experiments.Fig5(experiments.DefaultFig5())
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		},
		"6": func() (*experiments.Table, error) {
			r, err := experiments.Fig6(experiments.DefaultFig6())
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		},
		"7": func() (*experiments.Table, error) {
			r, err := experiments.Fig7(experiments.Fig7Config{})
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		},
	}
	order := []string{"5", "6", "7"}
	if *fig != "all" {
		if runs[*fig] == nil {
			return fmt.Errorf("unknown figure %q", *fig)
		}
		order = []string{*fig}
	}
	for _, f := range order {
		fmt.Fprintf(stdout, "=== Figure %s ===\n", f)
		table, err := runs[f]()
		if err != nil {
			return fmt.Errorf("figure %s: %w", f, err)
		}
		if *chart {
			fmt.Fprintln(stdout, table.Chart(72, 20))
		}
		csv := table.CSV()
		if *out == "" {
			fmt.Fprintln(stdout, csv)
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*out, "figure"+f+".csv")
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}
