// gae-lint machine-checks the source conventions the reproduction's
// guarantees rest on: sorted iteration before serialization (detorder),
// and sim-time-only simulation state (simtime).
//
// Standalone:
//
//	gae-lint -dir ../.. ./...            # what `make lint` runs
//	gae-lint -simtime ./internal/...     # one analyzer only
//
// As a vet tool (from the main module root, with gae-lint on PATH or
// built to a file):
//
//	go vet -vettool=/path/to/gae-lint ./...
package main

import (
	"os"

	"repro/tools/lint/driver"
	"repro/tools/lint/gaelint"
)

func main() {
	os.Exit(driver.Main(gaelint.Analyzers()...))
}
