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

// fieldAllowed are the fields nothing reached reads that stay anyway.
// Keys are "package.Type.Field".
var fieldAllowed = map[string]string{}

// settingTypes are the types a caller fills in to configure something
// whose names do not end in Config, Spec or Policy.
var settingTypes = map[string]bool{
	"estimator.RuntimeEstimator":  true,
	"estimator.TransferEstimator": true,
}

// settingAllowed are the settings nothing outside their package sets and
// the parameters nothing reads that stay anyway. Keys are
// "package.Type.Field" and "package.Func(param)".
var settingAllowed = map[string]string{
	"experiments.Fig7Config.PollInterval":      "an ablation bench_test.go runs and the README reports",
	"experiments.Fig7Config.DisableSteering":   "the steering on/off ablation bench_test.go runs and the README reports",
	"experiments.Fig7Config.Checkpointable":    "the checkpointing ablation bench_test.go runs and the README reports",
	"experiments.Fig6Config.ClientCounts":      "tests run Figure 6 at a reduced size",
	"experiments.Fig6Config.Jobs":              "tests run Figure 6 at a reduced size",
	"experiments.Fig6Config.RequestsPerClient": "tests run Figure 6 at a reduced size",
	"core.Config.FairShare":                    "drives the durable fair_share section and TestFairShareWiring; making it the serving default changes behaviour",
	"core.SiteSpec.CostPerTransferMB":          "bench/ prices transfers with it (ROADMAP item 4)",
	"simgrid.NewGrid(seed)":                    "bench/ passes it (ROADMAP item 4)",
	"core.Config.Seed":                         "bench/ passes it (ROADMAP item 4)",
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
// through an interface method reaches the methods of that name on the
// module's types that implement the interface. The scan is transitive — a reference inside an unreached function
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

// TestEveryFieldIsRead fails on a field declared outside _test.go files
// that nothing a binary, example, experiment or the benchmark harness
// reaches reads. Writes are not reads: an assignment's left side, a
// composite-literal key, ++ and --. Reads by reflection are: a tagged
// field, every field of a type handed to encoding/json or the XML-RPC
// codec (transitively), the fields of a struct used as a map key, and an
// embedded field.
func TestEveryFieldIsRead(t *testing.T) {
	reportFindings(t, "fieldAllowed", fieldAllowed, loadReachGraph(t).unread(),
		"fields nothing reached reads; delete them, or allow them in fieldAllowed with a reason")
}

// TestEverySettingIsSet fails on a setting no production code sets, and on
// a parameter its function never reads. A setting is an exported field of
// a type a caller fills in to configure something (settingTypes, and any
// type named …Config, …Spec or …Policy); it counts as set when reached
// code outside its own package writes it, so neither a constructor's
// defaults nor a test's values count. A method an interface asks for, and
// a function used as a value, may ignore a parameter.
func TestEverySettingIsSet(t *testing.T) {
	reportFindings(t, "settingAllowed", settingAllowed, loadReachGraph(t).unset(),
		"settings nothing sets and parameters nothing reads; delete them, make them constants, or allow them in settingAllowed with a reason")
}

// reportFindings fails on every finding not in allowed, and on every entry of
// allowed that is no longer a finding.
func reportFindings(t *testing.T, name string, allowed map[string]string, findings []string, msg string) {
	t.Helper()
	found := map[string]bool{}
	var report []string
	for _, f := range findings {
		key := f[:strings.IndexByte(f, ' ')]
		found[key] = true
		if _, ok := allowed[key]; !ok {
			report = append(report, f)
		}
	}
	if len(report) > 0 {
		t.Errorf("%d %s:\n\t%s", len(report), msg, strings.Join(report, "\n\t"))
	}
	for key := range allowed {
		if !found[key] {
			t.Errorf("%s[%q]: no longer a finding; drop the entry", name, key)
		}
	}
}

// reachGraph holds every function and method declared in the main
// module's non-test files and the functions each one names. The nil key
// of uses collects what is named outside any such declaration: in
// package-level initializers, and anywhere in bench/. The other maps say,
// per enclosing declaration on the same terms, which fields it reads and
// writes; reflected holds the fields read without a selector.
type reachGraph struct {
	root    string
	fset    *token.FileSet
	decls   []*types.Func
	uses    map[*types.Func][]*types.Func
	methods map[string][]*types.Func // concrete module methods by name

	fields     []*types.Var // declared in the module outside bench/
	fieldKey   map[*types.Var]string
	reads      map[*types.Func][]*types.Var
	writes     []fieldWrite
	reflected  map[*types.Var]bool
	params     []param
	paramRead  map[*types.Var]bool
	asValue    map[*types.Func]bool // named other than as a callee
	interfaces []*types.Interface
	seenIface  map[*types.Interface]bool
}

// fieldWrite is one assignment to a field: an assignment's left side, a
// composite-literal key, ++ / --, or its address taken. A default is a
// value its package supplies, not one a caller passes in: an assignment,
// or a write in a New… or Default… function, of anything but one of the
// function's parameters.
type fieldWrite struct {
	field     *types.Var
	in        *types.Func // nil outside any function
	pkg       *types.Package
	bench     bool
	isDefault bool
}

type param struct {
	fn *types.Func
	v  *types.Var
}

// reached is what the roots reach: what uses[nil] names, main and init,
// methods named in reachInterfaceMethods and the keys of allowed.
func (g *reachGraph) reached(allowed map[string]string) map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	var queue []*types.Func
	var visit func(f *types.Func)
	visit = func(f *types.Func) {
		if reached[f] {
			return
		}
		reached[f] = true
		queue = append(queue, f)
		// An interface method reaches the module methods that implement
		// it, whether the use is inside a function or in a package-level
		// initializer (a method expression in a table).
		if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			iface := recv.Type().Underlying().(*types.Interface)
			for _, m := range g.methods[f.Name()] {
				if implements(m, iface) {
					visit(m)
				}
			}
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
		}
	}
	return reached
}

// unreached lists, as "key (file)", the declarations no root reaches.
func (g *reachGraph) unreached(allowed map[string]string) []string {
	reached := g.reached(allowed)
	var out []string
	for _, f := range g.decls {
		if !reached[f] {
			out = append(out, reachKey(f)+" ("+g.file(f.Pos())+")")
		}
	}
	sort.Strings(out)
	return out
}

// unread lists, as "key (file)", the fields nothing reached reads, by
// selector or by reflection.
func (g *reachGraph) unread() []string {
	reached := g.reached(reachAllowed)
	read := map[*types.Var]bool{}
	for fn, vs := range g.reads {
		if fn == nil || reached[fn] {
			for _, v := range vs {
				read[v] = true
			}
		}
	}
	var out []string
	for _, v := range g.fields {
		if !read[v] && !g.reflected[v] {
			out = append(out, g.fieldKey[v]+" ("+g.file(v.Pos())+")")
		}
	}
	sort.Strings(out)
	return out
}

// unset lists, as "key (file)", the settings no reached production code
// outside their own package writes, and the parameters their function
// never reads.
func (g *reachGraph) unset() []string {
	reached := g.reached(reachAllowed)
	set := map[*types.Var]bool{}
	for _, w := range g.writes {
		if !w.bench && (w.pkg != w.field.Pkg() || !w.isDefault) && (w.in == nil || reached[w.in]) {
			set[w.field] = true
		}
	}
	var out []string
	for _, v := range g.fields {
		if isSetting(g.fieldKey[v]) && v.Exported() && !set[v] && !g.reflected[v] {
			out = append(out, g.fieldKey[v]+" ("+g.file(v.Pos())+")")
		}
	}
	for _, p := range g.params {
		if !g.paramRead[p.v] && !g.asValue[p.fn] && !g.satisfiesInterface(p.fn) {
			out = append(out, reachKey(p.fn)+"("+p.v.Name()+") ("+g.file(p.v.Pos())+")")
		}
	}
	sort.Strings(out)
	return out
}

// satisfiesInterface reports whether fn is a method some interface the
// module names asks for.
func (g *reachGraph) satisfiesInterface(fn *types.Func) bool {
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	for _, iface := range g.interfaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && implements(fn, iface) {
				return true
			}
		}
	}
	return false
}

// implements reports whether the receiver type of method fn, or a pointer
// to it, implements iface.
func implements(fn *types.Func, iface *types.Interface) bool {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// isSetting reports whether the field key names a field of a type a
// caller fills in to configure something.
func isSetting(key string) bool {
	typ := key[:strings.LastIndexByte(key, '.')]
	name := typ[strings.IndexByte(typ, '.')+1:]
	return settingTypes[typ] || strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Spec") || strings.HasSuffix(name, "Policy")
}

func (g *reachGraph) file(pos token.Pos) string {
	name := g.fset.Position(pos).Filename
	if rel, err := filepath.Rel(g.root, name); err == nil {
		name = rel
	}
	return filepath.ToSlash(name)
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
		root:      root,
		fset:      token.NewFileSet(),
		uses:      map[*types.Func][]*types.Func{},
		methods:   map[string][]*types.Func{},
		fieldKey:  map[*types.Var]string{},
		reads:     map[*types.Func][]*types.Var{},
		reflected: map[*types.Var]bool{},
		paramRead: map[*types.Var]bool{},
		asValue:   map[*types.Func]bool{},
		seenIface: map[*types.Interface]bool{},
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
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tpkg, err := conf.Check(p.ImportPath, g.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tpkg
		g.scan(tpkg, files, info, strings.HasPrefix(p.ImportPath, "repro/bench"))
	}
	return g
}

// scan adds one type-checked package to the graph. In bench/ nothing is
// declared: its references are all roots and its writes configure nothing.
func (g *reachGraph) scan(pkg *types.Package, files []*ast.File, info *types.Info, inBench bool) {
	for _, tv := range info.Types {
		g.noteType(tv.Type)
	}
	for _, f := range files {
		if !inBench {
			g.keyFields(pkg, f, info)
		}
		for _, decl := range f.Decls {
			var encl *types.Func
			if fd, ok := decl.(*ast.FuncDecl); ok && !inBench {
				encl = info.Defs[fd.Name].(*types.Func)
				g.decls = append(g.decls, encl)
				if fd.Recv != nil {
					g.methods[encl.Name()] = append(g.methods[encl.Name()], encl)
				}
				for _, v := range tupleVars(encl.Type().(*types.Signature).Params()) {
					if v.Name() != "" && v.Name() != "_" && fd.Body != nil {
						g.params = append(g.params, param{encl, v})
					}
				}
			}
			ctor := encl != nil && (strings.HasPrefix(encl.Name(), "New") || strings.HasPrefix(encl.Name(), "Default"))
			// isDefault reports whether writing val is a default: see fieldWrite.
			isDefault := func(val ast.Expr, assign bool) bool {
				if id, ok := ast.Unparen(val).(*ast.Ident); ok && encl != nil {
					for _, p := range tupleVars(encl.Type().(*types.Signature).Params()) {
						if info.Uses[id] == p {
							return false
						}
					}
				}
				return assign || ctor
			}
			writeOnly := map[*ast.SelectorExpr]bool{}
			write := func(e, val ast.Expr, only bool) {
				dflt := only && isDefault(val, true)
				// x.f.g = v writes g, and f with it while f holds x's
				// struct by value.
				for {
					sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
					if !ok {
						return
					}
					s := info.Selections[sel]
					if s == nil || s.Kind() != types.FieldVal {
						return
					}
					g.writes = append(g.writes, fieldWrite{s.Obj().(*types.Var).Origin(), encl, pkg, inBench, dflt})
					if only {
						writeOnly[sel] = true
					}
					if s.Indirect() || isPointer(info.TypeOf(sel.X)) {
						return
					}
					e = sel.X
				}
			}
			callee := map[*ast.Ident]bool{}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, l := range n.Lhs {
						var val ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							val = n.Rhs[i]
						}
						write(l, val, true)
					}
				case *ast.IncDecStmt:
					write(n.X, nil, true)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X, nil, false)
					}
				case *ast.CompositeLit:
					st, _ := info.TypeOf(n).Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if v, ok := info.Uses[identOf(kv.Key)].(*types.Var); ok && v.IsField() {
								g.writes = append(g.writes, fieldWrite{v.Origin(), encl, pkg, inBench, isDefault(kv.Value, false)})
							}
						} else if st != nil {
							g.writes = append(g.writes, fieldWrite{st.Field(i).Origin(), encl, pkg, inBench, isDefault(elt, false)})
						}
					}
				case *ast.SelectorExpr:
					if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !writeOnly[n] {
						g.reads[encl] = append(g.reads[encl], s.Obj().(*types.Var).Origin())
					}
				case *ast.CallExpr:
					id := identOf(n.Fun)
					callee[id] = true
					// What encoding/json or the XML-RPC codec is handed is
					// read field by field.
					if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil &&
						(fn.Pkg().Path() == "encoding/json" || fn.Pkg().Path() == "repro/internal/xmlrpc") {
						for _, arg := range n.Args {
							if t := info.TypeOf(arg); t != nil && !types.IsInterface(t) {
								g.reflect(t, map[types.Type]bool{})
							}
						}
					}
				case *ast.Ident:
					switch obj := info.Uses[n].(type) {
					case *types.Func:
						g.uses[encl] = append(g.uses[encl], obj.Origin())
						if !callee[n] {
							g.asValue[obj.Origin()] = true
						}
					case *types.Var:
						if !obj.IsField() {
							g.paramRead[obj] = true
						}
					}
				}
				return true
			})
		}
	}
}

// keyFields names the fields of the structs f declares "package.Type.Field",
// a nested anonymous struct's as "package.Type.Field.Sub" and one outside a
// type declaration's as "package.struct.Field". A tagged field is read by
// reflection, and so is an embedded one, which is not listed.
func (g *reachGraph) keyFields(pkg *types.Package, f *ast.File, info *types.Info) {
	var walk func(prefix string, e ast.Node)
	walk = func(prefix string, e ast.Node) {
		ast.Inspect(e, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				if len(fl.Names) == 0 {
					g.reflected[info.Defs[identOf(fl.Type)].(*types.Var)] = true
				}
				for _, name := range fl.Names {
					v := info.Defs[name].(*types.Var)
					if _, done := g.fieldKey[v]; !done {
						g.fieldKey[v] = prefix + "." + name.Name
						g.fields = append(g.fields, v)
					}
					if fl.Tag != nil {
						g.reflected[v] = true
					}
					walk(prefix+"."+name.Name, fl.Type)
				}
			}
			return false
		})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			walk(pkg.Name()+"."+ts.Name.Name, ts.Type)
		}
		return true
	})
	walk(pkg.Name()+".struct", f)
}

// noteType records the interfaces t names and, where t is a map keyed by
// a struct, that the key's fields are read by hashing.
func (g *reachGraph) noteType(t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Interface:
		if u.NumMethods() > 0 && !g.seenIface[u] {
			g.seenIface[u] = true
			g.interfaces = append(g.interfaces, u)
		}
	case *types.Map:
		if _, ok := u.Key().Underlying().(*types.Struct); ok {
			g.reflect(u.Key(), map[types.Type]bool{})
		}
	case *types.Signature:
		for _, v := range append(tupleVars(u.Params()), tupleVars(u.Results())...) {
			g.noteType(v.Type())
		}
	}
}

// reflect marks every field t holds, transitively, as read.
func (g *reachGraph) reflect(t types.Type, seen map[types.Type]bool) {
	switch u := types.Unalias(t).(type) {
	case *types.Named:
		if !seen[u] {
			seen[u] = true
			g.reflect(u.Underlying(), seen)
		}
	case *types.Pointer:
		g.reflect(u.Elem(), seen)
	case *types.Slice:
		g.reflect(u.Elem(), seen)
	case *types.Array:
		g.reflect(u.Elem(), seen)
	case *types.Map:
		g.reflect(u.Key(), seen)
		g.reflect(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			g.reflected[u.Field(i).Origin()] = true
			g.reflect(u.Field(i).Type(), seen)
		}
	}
}

func tupleVars(t *types.Tuple) []*types.Var {
	var out []*types.Var
	for i := 0; i < t.Len(); i++ {
		out = append(out, t.At(i))
	}
	return out
}

// identOf is the identifier an expression names: x, pkg.x, x.y, x[T] or *x
// name their last identifier.
func identOf(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return identOf(e.X)
	case *ast.IndexListExpr:
		return identOf(e.X)
	case *ast.StarExpr:
		return identOf(e.X)
	}
	return nil
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
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
