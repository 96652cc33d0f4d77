// Command gae-bench regenerates every measured artifact of the paper's
// evaluation section and renders it as CSV and an ASCII chart.
//
//	gae-bench -fig 5         # runtime-estimator accuracy (Figure 5)
//	gae-bench -fig 6         # job-monitoring response times (Figure 6)
//	gae-bench -fig 7         # steering rescue (Figure 7)
//	gae-bench -fig all -out results/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() {
	var (
		fig   = flag.String("fig", "all", "figure to regenerate: 5, 6, 7, or all")
		out   = flag.String("out", "", "directory to write CSV files (stdout only if empty)")
		chart = flag.Bool("chart", true, "render ASCII charts")
	)
	flag.Parse()

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
	var order []string
	switch *fig {
	case "all":
		order = []string{"5", "6", "7"}
	case "5", "6", "7":
		order = []string{*fig}
	default:
		log.Fatalf("gae-bench: unknown figure %q", *fig)
	}
	for _, f := range order {
		fmt.Printf("=== Figure %s ===\n", f)
		table, err := runs[f]()
		if err != nil {
			log.Fatalf("gae-bench: figure %s: %v", f, err)
		}
		if *chart {
			fmt.Println(table.Chart(72, 20))
		}
		csv := table.CSV()
		if *out == "" {
			fmt.Println(csv)
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatalf("gae-bench: %v", err)
		}
		path := filepath.Join(*out, "figure"+f+".csv")
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			log.Fatalf("gae-bench: %v", err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
