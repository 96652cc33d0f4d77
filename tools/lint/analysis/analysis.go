// Package analysis is a dependency-free re-creation of the
// golang.org/x/tools/go/analysis API surface that gae-lint needs. The
// container this repo builds in has no module proxy access, so the
// linter cannot depend on x/tools; keeping the same shape (Analyzer,
// Pass, Diagnostic, per-analyzer flag sets) means the analyzers would
// compile against the real framework with only an import-path change
// if the dependency ever becomes available.
//
// Only the subset gae-lint uses is implemented: no Facts (both analyzers
// are strictly package-local), no Requires/ResultOf chaining, no
// suggested fixes.
package analysis

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flag names.
	Name string

	// Doc is the analyzer's documentation, shown by gae-lint -help.
	Doc string

	// Flags holds analyzer-specific flags, registered by the driver
	// under the -Name.flag namespace.
	Flags flag.FlagSet

	// Run applies the analyzer to a single type-checked package.
	Run func(*Pass) (any, error)
}

// A Pass presents one package to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver installs it.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
