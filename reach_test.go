package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed are the production functions and methods no binary,
// example, experiment or benchmark calls that stay anyway, because tests
// in other packages drive them or they are public API. Keys are
// "package.Func" or "package.Type.Method".
var reachAllowed = map[string]string{
	"condor.Pool.Fail":                "fault injection for the recovery, jobmon and core tests",
	"condor.Pool.Recover":             "fault injection for the recovery, jobmon and core tests",
	"simgrid.StepLoad":                "stepped-load fixture the condor and root tests share",
	"simgrid.Network.SetUtilization":  "background-traffic fixture the estimator and scheduler tests share",
	"simgrid.Engine.Tick":             "the time resolution the condor, scheduler and core step loops and oracles advance by",
	"simgrid.Engine.Ticks":            "boundaries visited: the count the condor and simgrid event gates read",
	"vtime.SimClock.Advance":          "how tests move a simulated clock without an engine",
	"fairshare.LessKeys":              "the reference order condor's oracle tests compare against",
	"classad.Ad.Names":                "how the condor tests read which attributes an ad carries",
	"clarens.Server.BaseURL":          "the address pkg/gae and core tests dial",
	"monalisa.WithEventCap":           "bounds the event log in the jobmon tests",
	"fairshare.Manager.GroupUsage":    "how condor's flow tests read a group's accrued usage",
	"steering.Service.ExecutionState": "the paper's downloadable execution state",
	"gae.WithToken":                   "public client API: attach an existing session",
}

// reachInterfaceMethods are method names a standard-library interface
// calls, so a method by that name is reached without the repository
// calling it.
var reachInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "RoundTrip": true,
	"Read": true, "Write": true, "Close": true, "Sync": true, "Seek": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// TestEveryFunctionIsReached fails on a function or method declared
// outside _test.go files that no binary, example, experiment or the
// benchmark harness reaches: production code is what they run. Every
// identifier is resolved by go/types to the function it names, so a
// declaration is not kept alive by another that shares its name; a call
// through an interface method reaches every method of the module by that
// name. The scan is transitive — a reference inside an unreached function
// does not count, so a chain that only tests enter is reported whole.
// bench/ is type-checked with the module and is all roots, never reported.
func TestEveryFunctionIsReached(t *testing.T) {
	g := loadReachGraph(t)
	if unreached := g.unreached(reachAllowed); len(unreached) > 0 {
		t.Errorf("%d functions only tests reach; delete them, move them into an export_test.go, or allow them in reachAllowed with a reason:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
	// An entry stays only while it is needed.
	needed := map[string]bool{}
	for _, u := range g.unreached(nil) {
		needed[u[:strings.IndexByte(u, ' ')]] = true
	}
	for key := range reachAllowed {
		if !needed[key] {
			t.Errorf("reachAllowed[%q]: the function is gone or reached; drop the entry", key)
		}
	}
}

// reachGraph holds every function and method declared in the main
// module's non-test files and the functions each one names. The nil key
// of uses collects what is named outside any such declaration: in
// package-level initializers, and anywhere in bench/.
type reachGraph struct {
	root    string
	fset    *token.FileSet
	decls   []*types.Func
	uses    map[*types.Func][]*types.Func
	methods map[string][]*types.Func // concrete module methods by name
}

// unreached lists, as "key (file)", the declarations no root reaches.
// Roots are what uses[nil] names, main and init, methods named in
// reachInterfaceMethods and the keys of allowed.
func (g *reachGraph) unreached(allowed map[string]string) []string {
	reached := map[*types.Func]bool{}
	var queue []*types.Func
	visit := func(f *types.Func) {
		if !reached[f] {
			reached[f] = true
			queue = append(queue, f)
		}
	}
	for _, f := range g.decls {
		_, isAllowed := allowed[reachKey(f)]
		isMethod := f.Type().(*types.Signature).Recv() != nil
		if isAllowed || (!isMethod && (f.Name() == "main" || f.Name() == "init")) ||
			(isMethod && reachInterfaceMethods[f.Name()]) {
			visit(f)
		}
	}
	for _, f := range g.uses[nil] {
		visit(f)
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, u := range g.uses[f] {
			visit(u)
			if recv := u.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				for _, m := range g.methods[u.Name()] {
					visit(m)
				}
			}
		}
	}
	var out []string
	for _, f := range g.decls {
		if !reached[f] {
			file, err := filepath.Rel(g.root, g.fset.Position(f.Pos()).Filename)
			if err != nil {
				file = g.fset.Position(f.Pos()).Filename
			}
			out = append(out, reachKey(f)+" ("+filepath.ToSlash(file)+")")
		}
	}
	sort.Strings(out)
	return out
}

// reachKey names f as "package.Func" or "package.Type.Method".
func reachKey(f *types.Func) string {
	key := f.Pkg().Name() + "."
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			key += n.Obj().Name() + "."
		}
	}
	return key + f.Name()
}

// reachPkg is the part of `go list -json` output the scan reads.
type reachPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// loadReachGraph type-checks the main module's packages and bench/ from
// source, in dependency order, with the standard library imported from
// the export data `go list -export` leaves in the build cache.
func loadReachGraph(t *testing.T) *reachGraph {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := append(goListDeps(t, root), goListDeps(t, filepath.Join(root, "bench"))...)
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	g := &reachGraph{
		root:    root,
		fset:    token.NewFileSet(),
		uses:    map[*types.Func][]*types.Func{},
		methods: map[string][]*types.Func{},
	}
	std := importer.ForCompiler(g.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: reachImporter(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	for _, p := range pkgs {
		if p.Standard || checked[p.ImportPath] != nil || len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(g.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		tpkg, err := conf.Check(p.ImportPath, g.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tpkg
		inBench := strings.HasPrefix(p.ImportPath, "repro/bench")
		for _, f := range files {
			for _, decl := range f.Decls {
				var encl *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok && !inBench {
					encl = info.Defs[fd.Name].(*types.Func)
					g.decls = append(g.decls, encl)
					if fd.Recv != nil {
						g.methods[encl.Name()] = append(g.methods[encl.Name()], encl)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := info.Uses[id].(*types.Func); ok {
							g.uses[encl] = append(g.uses[encl], fn.Origin())
						}
					}
					return true
				})
			}
		}
	}
	return g
}

// goListDeps lists the packages of the module in dir and their
// dependencies, dependencies first, compiling export data as it goes.
func goListDeps(t *testing.T, dir string) []reachPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,Error", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []reachPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p reachPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if p.Error != nil {
			t.Fatalf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type reachImporter func(path string) (*types.Package, error)

func (f reachImporter) Import(path string) (*types.Package, error) { return f(path) }
