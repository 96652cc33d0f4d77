// Package driver runs gae-lint's analyzers in the two modes the repo
// needs: a standalone multichecker over `go list` patterns (what `make
// lint` runs), and the cmd/go vet-tool protocol (`go vet
// -vettool=$(which gae-lint) ./...`), which hands the tool one
// pre-planned package per invocation through a JSON .cfg file.
package driver

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/tools/lint/analysis"
	"repro/tools/lint/loader"
)

// Main parses flags and runs analyzers, returning the process exit
// code: 0 clean, 1 diagnostics found (2 in vet-tool mode, matching
// x/tools unitchecker), 3 on driver failure.
func Main(analyzers ...*analysis.Analyzer) int {
	fs := flag.NewFlagSet("gae-lint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: gae-lint [-dir dir] [-NAME] [-NAME.flag=value] [package pattern ...]\n\n")
		fmt.Fprintf(fs.Output(), "Runs the gae determinism analyzers. With no -NAME flags all\nanalyzers run; naming one or more runs only those.\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	dir := fs.String("dir", ".", "directory to resolve package patterns in (a module root)")
	vFlag := fs.String("V", "", "print version and exit (vet-tool protocol)")
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		a := a
		enabled[a.Name] = fs.Bool(a.Name, false, "run only named analyzers: enable "+a.Name)
		a.Flags.VisitAll(func(f *flag.Flag) {
			fs.Var(f.Value, a.Name+"."+f.Name, f.Usage)
		})
	}
	// cmd/go probes `tool -flags` before using a vet tool and expects a
	// JSON description of the flags it may forward.
	if len(os.Args) > 1 && os.Args[1] == "-flags" {
		return printFlags(fs)
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 3
	}
	if *vFlag != "" {
		// cmd/go probes `tool -V=full` and requires a buildID field when
		// the version is "devel"; hashing the executable (what x/tools'
		// analysisflags does) keys its action cache to this binary.
		exe, err := os.Executable()
		if err != nil {
			exe = os.Args[0]
		}
		data, err := os.ReadFile(exe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gae-lint:", err)
			return 3
		}
		h := sha256.Sum256(data)
		fmt.Printf("%s version devel buildID=%02x\n", filepath.Base(os.Args[0]), string(h[:]))
		return 0
	}

	run := analyzers
	var named []*analysis.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			named = append(named, a)
		}
	}
	if len(named) > 0 {
		run = named
	}

	args := fs.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return vetUnit(args[0], run)
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}

	diags, err := Run(*dir, args, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gae-lint:", err)
		return 3
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// printFlags implements the `-flags` probe of the vet-tool protocol:
// a JSON array of the tool's flags in the shape cmd/go parses (the
// same one x/tools' analysisflags emits).
func printFlags(fs *flag.FlagSet) int {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name == "dir" {
			return // standalone-mode only; cmd/go plans the packages itself
		}
		b, isBool := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, isBool && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.Marshal(flags)
	if err != nil {
		return 3
	}
	os.Stdout.Write(data)
	return 0
}

// A Finding is one rendered diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run loads patterns relative to dir and applies the analyzers,
// returning position-sorted findings. It is the library entry point the
// self-lint regression test uses.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, pkg := range pkgs {
		fs, err := analyze(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// Analyze applies analyzers to one loaded package (exported for the
// analysistest harness).
func Analyze(pkg *loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	return analyze(pkg, analyzers)
}

func analyze(pkg *loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			out = append(out, Finding{
				Pos:      pkg.Fset.Position(d.Pos),
				Analyzer: name,
				Message:  d.Message,
			})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
		}
	}
	return out, nil
}

// vetConfig mirrors the JSON planning file cmd/go writes for vet tools
// (the same shape x/tools go/analysis/unitchecker consumes).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetUnit executes the vet-tool protocol for one package: analyze the
// listed files, resolve imports through the supplied export-data map,
// print findings to stderr, and always write the (empty — gae-lint has
// no facts) vetx output the go command caches on.
func vetUnit(cfgPath string, analyzers []*analysis.Analyzer) int {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gae-lint:", err)
		return 3
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gae-lint: parsing %s: %v\n", cfgPath, err)
		return 3
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "gae-lint:", err)
			return 3
		}
	}
	if cfg.VetxOnly || len(cfg.GoFiles) == 0 {
		return 0
	}
	fset := token.NewFileSet()
	pkg, err := loader.CheckFiles(fset, cfg.ImportPath, cfg.GoFiles, cfg.PackageFile, cfg.ImportMap)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "gae-lint:", err)
		return 3
	}
	fs, err := analyze(pkg, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gae-lint:", err)
		return 3
	}
	for _, f := range fs {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(fs) > 0 {
		return 2
	}
	return 0
}
