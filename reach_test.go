package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
// calls, so a method by that name is reached without its name being
// written anywhere in the repository.
var reachInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "RoundTrip": true,
	"Read": true, "Write": true, "Close": true, "Sync": true, "Seek": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// TestEveryFunctionIsReached fails on a function or method declared
// outside _test.go files whose name no other non-test code mentions:
// production code is what a binary, an example, an experiment or the
// benchmark harness runs. The match is on names, so it is conservative —
// a name written anywhere outside its own declarations keeps every
// declaration by that name — and transitive: a mention inside an
// unreached function does not count, so a chain that only tests enter
// is reported whole. bench/ is read for mentions, never reported.
func TestEveryFunctionIsReached(t *testing.T) {
	if unreached := unreachedFuncs(t, ".", reachAllowed); len(unreached) > 0 {
		t.Errorf("%d functions only tests reach; delete them, move them into an export_test.go, or allow them in reachAllowed with a reason:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
	// An entry stays only while it is needed.
	needed := map[string]bool{}
	for _, u := range unreachedFuncs(t, ".", nil) {
		needed[u[:strings.IndexByte(u, ' ')]] = true
	}
	for key := range reachAllowed {
		if !needed[key] {
			t.Errorf("reachAllowed[%q]: the function is gone or reached; drop the entry", key)
		}
	}
}

type reachDecl struct {
	key  string // package.Func or package.Type.Method
	name string
	pos  token.Position
	root bool // never reported: allowed, an entry point, or in bench/
}

type reachMention struct {
	name  string
	encl  int  // index into decls of the enclosing function, or -1
	owner bool // the enclosing function has this name
}

func unreachedFuncs(t *testing.T, root string, allowed map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var decls []reachDecl
	var mentions []reachMention
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "tools" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inBench := strings.HasPrefix(filepath.ToSlash(path), "bench/")
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				collectMentions(decl, -1, "", &mentions)
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				key = pkg + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			_, isAllowed := allowed[key]
			root := isAllowed || inBench || fn.Name.Name == "main" || fn.Name.Name == "init" ||
				(fn.Recv != nil && reachInterfaceMethods[fn.Name.Name])
			decls = append(decls, reachDecl{key: key, name: fn.Name.Name, pos: fset.Position(fn.Pos()), root: root})
			collectMentions(fn, len(decls)-1, fn.Name.Name, &mentions)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A name is live while some mention of it sits outside every
	// unreached function and outside the declarations of that name.
	dead := make([]bool, len(decls))
	for changed := true; changed; {
		changed = false
		live := map[string]bool{}
		for _, m := range mentions {
			if m.encl < 0 || (!dead[m.encl] && !m.owner) {
				live[m.name] = true
			}
		}
		for i, d := range decls {
			if !dead[i] && !d.root && !live[d.name] {
				dead[i], changed = true, true
			}
		}
	}
	var out []string
	for i, d := range decls {
		if dead[i] {
			out = append(out, d.key+" ("+filepath.ToSlash(d.pos.Filename)+")")
		}
	}
	sort.Strings(out)
	return out
}

func collectMentions(n ast.Node, encl int, fn string, mentions *[]reachMention) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			*mentions = append(*mentions, reachMention{name: id.Name, encl: encl, owner: id.Name == fn})
		}
		return true
	})
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
