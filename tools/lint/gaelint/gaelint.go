// Package gaelint is the registry of the repo's analyzers: the single
// place cmd/gae-lint, the self-lint regression test, and any future
// checks agree on.
package gaelint

import (
	"repro/tools/lint/analysis"
	"repro/tools/lint/detorder"
	"repro/tools/lint/simtime"
)

// Analyzers returns the full gae-lint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detorder.Analyzer,
		simtime.Analyzer,
	}
}
