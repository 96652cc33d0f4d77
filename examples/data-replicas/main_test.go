package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStdoutGolden: the program runs to completion and prints exactly
// testdata/stdout.golden. After an intended change of output, rewrite it
// from the repository root with
//
//	go run ./examples/data-replicas > examples/data-replicas/testdata/stdout.golden
func TestStdoutGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("stdout:\n%s\nwant (testdata/stdout.golden):\n%s", out.Bytes(), want)
	}
}
