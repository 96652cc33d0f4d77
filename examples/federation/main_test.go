package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// loopback matches the addresses of the Clarens hosts, whose ports the
// federation binds anew on every run.
var loopback = regexp.MustCompile(`127\.0\.0\.1:[0-9]+`)

// TestStdoutGolden: the program runs to completion and prints exactly
// testdata/stdout.golden once loopback ports are masked. After an
// intended change of output, rewrite it from the repository root with
//
//	go run ./examples/federation | sed -E 's/127\.0\.0\.1:[0-9]+/127.0.0.1:PORT/g' \
//	    > examples/federation/testdata/stdout.golden
func TestStdoutGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := loopback.ReplaceAll(out.Bytes(), []byte("127.0.0.1:PORT"))
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout:\n%s\nwant (testdata/stdout.golden):\n%s", got, want)
	}
}
