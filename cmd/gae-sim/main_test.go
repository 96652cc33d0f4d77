package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFairnessGoldens: gae-sim replays every scenario file under
// testdata/scenarios, fair share on (the default) and off, and its CSV
// reads exactly as testdata/golden/NAME.fairshare-BOOL.csv, written to
// stdout with -output - and to a file with -output FILE. After an
// intended change of output, rewrite the goldens from the repository root
// with
//
//	go run ./cmd/gae-sim -scenario testdata/scenarios/NAME.json -fairshare=BOOL \
//	    -output testdata/golden/NAME.fairshare-BOOL.csv
func TestFairnessGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario files: %v", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		for _, fair := range []string{"true", "false"} {
			t.Run(name+"/fairshare="+fair, func(t *testing.T) {
				golden := filepath.Join("..", "..", "testdata", "golden", name+".fairshare-"+fair+".csv")
				args := []string{"-scenario", path}
				if fair == "false" {
					args = append(args, "-fairshare=false")
				}
				var stdout, stderr bytes.Buffer
				if err := run(append(args, "-output", "-"), &stdout, &stderr); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, golden, stdout.String())
				if !strings.Contains(stderr.String(), "Jain") {
					t.Errorf("stderr carries no summary:\n%s", stderr.String())
				}

				file := filepath.Join(t.TempDir(), "out.csv")
				stdout.Reset()
				if err := run(append(args, "-output", file), &stdout, &stderr); err != nil {
					t.Fatal(err)
				}
				if stdout.Len() != 0 {
					t.Errorf("-output FILE printed to stdout:\n%s", stdout.String())
				}
				got, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, golden, string(got))
			})
		}
	}
}

// TestRunRefusesArguments: run returns an error, before it replays
// anything, for arguments it cannot run as written.
func TestRunRefusesArguments(t *testing.T) {
	scenario := filepath.Join("..", "..", "testdata", "scenarios", "bursty-tenant.json")
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"no scenario", []string{"-output", "-"}, "-scenario is required"},
		{"a missing file", []string{"-scenario", "absent.json"}, "open absent.json"},
		{"a stray argument", []string{"-scenario", scenario, "extra"}, `unexpected argument "extra"`},
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

// checkGolden fails t at the first line where got differs from the file
// at path.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d is %q, golden has %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", path, len(gl), len(wl))
}
