// Package simtime implements the gae-lint analyzer that keeps wall
// time out of the simulation.
//
// Every determinism guarantee in this repo — tick-vs-event trace
// parity, replay-identical crash recovery, byte-identical snapshot
// exports — assumes simulation state advances only on sim time
// (Engine.Now(), vtime.Clock) and seeded randomness
// (rand.New(rand.NewSource(seed))). A single time.Now() or global
// math/rand call in a critical package silently breaks replay.
//
// simtime therefore forbids, in the configured critical packages:
//
//   - wall-clock reads and timers: time.Now, time.Since, time.Until,
//     time.Sleep, time.After, time.AfterFunc, time.Tick, time.NewTimer,
//     time.NewTicker
//   - the process-global math/rand source: rand.Int, rand.Intn,
//     rand.Float64, rand.Perm, rand.Shuffle, rand.Seed, rand.Read, and
//     the rest of the top-level function set. Constructing a seeded
//     generator (rand.New, rand.NewSource, rand.NewZipf) stays legal.
//
// Legitimate wall-clock reads exist in critical packages — telemetry
// measures real pass/fsync/handler durations, and vtime's realClock is
// the one sanctioned bridge to the OS clock. Those sites carry a
//
//	//lint:walltime <justification>
//
// annotation on the call's line (or the line above), making every
// wall-clock read in a sim package a visible, audited decision. An
// annotation without a justification is itself a diagnostic.
package simtime

import (
	"go/ast"
	"go/types"

	"repro/tools/lint/analysis"
	"repro/tools/lint/lintutil"
)

// Analyzer is the simtime analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "simtime",
	Doc:  "forbid wall-clock and global math/rand use in determinism-critical packages (suppress with //lint:walltime <why>)",
	Run:  run,
}

var critical string

func init() {
	Analyzer.Flags.StringVar(&critical, "critical", lintutil.CriticalDefault,
		"comma-separated import paths of determinism-critical packages")
}

// AnnotationName is the suppression annotation simtime honors.
const AnnotationName = "walltime"

// wallTime lists the time-package functions that read or schedule on
// the wall clock. Conversions and arithmetic (time.Duration, time.Unix,
// Time.Add, ...) are pure and stay legal.
var wallTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRand lists the math/rand top-level functions backed by the
// process-global, non-replayable source.
var globalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true,
	"Seed": true, "Read": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.MatchesCritical(critical, pass.Pkg.Path()) {
		return nil, nil
	}
	anns := lintutil.CollectAnnotations(pass, AnnotationName)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgName, ok := pkgQualifier(pass.TypesInfo, sel)
			if !ok {
				return true
			}
			var what string
			switch {
			case pkgName == "time" && wallTime[sel.Sel.Name]:
				what = "wall-clock call time." + sel.Sel.Name
			case pkgName == "math/rand" && globalRand[sel.Sel.Name]:
				what = "global math/rand call rand." + sel.Sel.Name
			default:
				return true
			}
			if anns.Suppressed(AnnotationName, sel.Pos()) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"%s in determinism-critical package %s: use sim time (Engine.Now/vtime.Clock) or a seeded rand.Rand, or annotate with //lint:walltime <why>",
				what, pass.Pkg.Path())
			return true
		})
	}
	return nil, nil
}

// pkgQualifier resolves sel's X to a package name, returning the
// imported package's path — so aliased imports and dot-free selector
// shadowing are handled by the type checker, not string matching.
func pkgQualifier(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}
