package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigureGoldens: gae-bench regenerates Figures 5 and 7, and the CSV
// it writes reads exactly as testdata/golden/figureN.csv. Figure 6 times
// real RPCs, so it has no golden. After an intended change of output,
// rewrite the goldens from the repository root with
//
//	go run ./cmd/gae-bench -fig 5 -chart=false -out testdata/golden
//	go run ./cmd/gae-bench -fig 7 -chart=false -out testdata/golden
func TestFigureGoldens(t *testing.T) {
	dir := t.TempDir()
	for _, fig := range []string{"5", "7"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-fig", fig, "-chart=false", "-out", dir}, &stdout, &stderr); err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
		name := "figure" + fig + ".csv"
		if want := "=== Figure " + fig + " ===\nwrote " + filepath.Join(dir, name) + "\n"; stdout.String() != want {
			t.Errorf("figure %s printed %q, want %q", fig, stdout.String(), want)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n%s\nwant (testdata/golden/%s):\n%s", name, got, name, want)
		}
	}
}

// TestRunRefusesArguments: run returns an error, before it runs any
// experiment, for arguments it cannot run as written.
func TestRunRefusesArguments(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"an unknown figure", []string{"-fig", "9"}, `unknown figure "9"`},
		{"a stray argument", []string{"-fig", "5", "extra"}, `unexpected argument "extra"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
			}
			if stdout.Len() != 0 {
				t.Errorf("run(%q) printed to stdout:\n%s", tc.args, stdout.String())
			}
		})
	}
}
