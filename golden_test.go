package repro_test

// The behavioural contract in bytes: the fairness replay of every scenario
// file, with fair share on and off, and the Figure 5 and Figure 7 tables
// must read exactly as the goldens under testdata/golden. `make sim-smoke`
// holds the gae-sim binary to the same files. After an intended change of
// output, rewrite the goldens with
//
//	go run ./cmd/gae-sim -scenario testdata/scenarios/NAME.json -fairshare=BOOL \
//	    -output testdata/golden/NAME.fairshare-BOOL.csv
//	go run ./cmd/gae-bench -fig 5 -chart=false -out testdata/golden
//	go run ./cmd/gae-bench -fig 7 -chart=false -out testdata/golden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// loadScenario loads testdata/scenarios/<name>.json.
func loadScenario(tb testing.TB, name string) workload.FairnessScenario {
	tb.Helper()
	sc, err := workload.LoadScenario(filepath.Join("testdata", "scenarios", name+".json"))
	if err != nil {
		tb.Fatal(err)
	}
	return sc
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: line %d is %q, golden has %q", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
	}
}

func TestFairnessGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario files: %v", err)
	}
	for _, path := range paths {
		sc, err := workload.LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, fair := range []string{"true", "false"} {
			t.Run(sc.Name+"/fairshare="+fair, func(t *testing.T) {
				res, err := experiments.Fairness(sc, fair == "true")
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, sc.Name+".fairshare-"+fair+".csv", res.CSV())
			})
		}
	}
}

func TestFigureGoldens(t *testing.T) {
	fig5, err := experiments.Fig5(experiments.DefaultFig5())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure5.csv", fig5.Table.CSV())
	fig7, err := experiments.Fig7(experiments.Fig7Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure7.csv", fig7.Table.CSV())
}
