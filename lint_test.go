package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The determinism checks. The paper's figures, the fairness goldens and
// crash recovery replay bit for bit only while two conventions hold:
//
//   - simtime: simulation state advances on sim time (Engine.Now,
//     vtime.Clock) and seeded randomness (rand.New(rand.NewSource(seed))).
//     In the critical packages a wall-clock read or timer (time.Now,
//     time.Since, time.Sleep, ...) or a call on the process-global
//     math/rand source (rand.Intn, rand.Shuffle, ...) is a finding.
//     Duration arithmetic and constructing a seeded generator stay legal.
//   - detorder: Go's randomized map order never reaches an ordered sink.
//     A range over a map is a finding when its body writes through an
//     io.Writer (as receiver or argument), sends on a channel, or appends
//     to a slice declared outside the loop that is not sorted after it
//     (sort.*, slices.Sort*) and escapes the function: rooted in a
//     receiver or outer variable, returned, or passed to another call.
//     The collect-keys, sort, iterate idiom passes, and so do purely local
//     effects. The analysis is per function: a sort anywhere after the
//     loop counts, and calls from the loop body are not followed.
//
// A legitimate exception carries an annotation with its reason, on the
// finding's line or the line above:
//
//	//lint:walltime <why>     a wall-clock read that never feeds sim state
//	//lint:unordered <why>    a map range whose order nothing observes
//
// An annotation without a reason is itself a finding.

// critical are the packages under repro/internal that simtime checks: the
// simulation core, every service that runs inside it, and the durable
// encode and replay path. Serving infrastructure (clarens, xmlrpc,
// telemetry, loadgen, chaos) reads the wall clock by design.
const critical = "vtime simgrid classad condor fairshare scheduler estimator quota replica " +
	"steering jobmon monalisa workload experiments durable core"

func isCritical(path string) bool {
	rest, ok := strings.CutPrefix(path, "repro/internal/")
	name, _, _ := strings.Cut(rest, "/")
	return ok && slices.Contains(strings.Fields(critical), name)
}

// TestLint runs the determinism checks over the main module's non-test
// packages and bench/ (not critical, so detorder only). The committed tree
// must stay clean: a new finding is a bug or a decision to write down as
// an annotation.
func TestLint(t *testing.T) {
	m := loadModule(t)
	for _, p := range m.pkgs {
		for _, f := range lint(m.graph.fset, p.path, p.files, p.info) {
			pos := m.graph.fset.Position(f.pos)
			t.Errorf("%s:%d: %s", m.graph.file(f.pos), pos.Line, f.msg)
		}
	}
}

// lintFixtures are sources type-checked under the import path they name,
// each holding what the checks must find as `// want "regexp"` comments
// on the finding's line. `// want:-1` expects it on the line above, for a
// line that is itself an annotation.
var lintFixtures = []struct{ path, src string }{
	{"repro/internal/simgrid", `package simgrid

import (
	"math/rand"
	"time"
)

type Engine struct {
	now time.Time
	rng *rand.Rand
}

func NewEngine(seed int64) *Engine {
	// Constructing a private seeded stream is the sanctioned pattern.
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

func (e *Engine) Tick() time.Time {
	e.now = e.now.Add(time.Second) // duration arithmetic is fine
	return e.now
}

func (e *Engine) BadNow() time.Time {
	return time.Now() // want "wall-clock call time\\.Now in determinism-critical package repro/internal/simgrid"
}

func (e *Engine) BadSleep() {
	time.Sleep(time.Millisecond) // want "wall-clock call time\\.Sleep"
}

func (e *Engine) BadSince() time.Duration {
	return time.Since(e.now) // want "wall-clock call time\\.Since"
}

func (e *Engine) BadJitter() float64 {
	return rand.Float64() // want "global math/rand call rand\\.Float64"
}

func (e *Engine) BadShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "global math/rand call rand\\.Shuffle"
}

func (e *Engine) GoodJitter() float64 {
	return e.rng.Float64() // per-engine seeded stream: legal
}

func (e *Engine) AnnotatedTrailing() time.Time {
	return time.Now() //lint:walltime fixture: telemetry-style read that never feeds sim state
}

func (e *Engine) AnnotatedAbove() time.Time {
	//lint:walltime fixture: telemetry-style read that never feeds sim state
	return time.Now()
}

func (e *Engine) BareAnnotation() time.Time {
	//lint:walltime
	// want:-1 "annotation needs a justification"
	return time.Now() // want "wall-clock call time\\.Now"
}
`},
	{"repro/internal/telemetry", `// Not on the critical list, so wall-clock reads pass unannotated.
package telemetry

import "time"

func Stamp() time.Time {
	return time.Now()
}
`},
	{"repro/internal/condor", `// Shaped like the snapshot encoders: map state serialized into byte
// streams and wire-visible lists.
package condor

import (
	"fmt"
	"io"
	"sort"
)

type State struct {
	Pools map[string]int
}

// BadEncode streams map entries straight into the writer.
func (s *State) BadEncode(w io.Writer) {
	for name, n := range s.Pools { // want "map iteration order reaches ordered sink"
		fmt.Fprintf(w, "%s=%d\n", name, n)
	}
}

// GoodEncode collects keys, sorts, then writes in key order.
func (s *State) GoodEncode(w io.Writer) {
	names := make([]string, 0, len(s.Pools))
	for name := range s.Pools {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s=%d\n", name, s.Pools[name])
	}
}

// BadList returns a wire-visible slice built in map order.
func (s *State) BadList() []string {
	var names []string
	for name := range s.Pools { // want "map iteration appends to names, which escapes this function without a dominating sort"
		names = append(names, name)
	}
	return names
}

// GoodList sorts the collected slice before it escapes.
func (s *State) GoodList() []string {
	var names []string
	for name := range s.Pools {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BadSend leaks map order through a channel.
func (s *State) BadSend(ch chan<- string) {
	for name := range s.Pools { // want "map iteration order reaches a channel send"
		ch <- name
	}
}

// LocalTally never escapes: order cannot be observed.
func (s *State) LocalTally() int {
	var parts []int
	total := 0
	for _, n := range s.Pools {
		parts = append(parts, n)
	}
	for _, p := range parts {
		total += p
	}
	return total
}

// Annotated is suppressed: the caller re-sorts downstream.
func (s *State) Annotated() []string {
	var names []string
	//lint:unordered fixture: the downstream consumer fully re-sorts
	for name := range s.Pools {
		names = append(names, name)
	}
	return names
}
`},
}

var (
	wantRe  = regexp.MustCompile(`^// want(:[+-]?\d+)?((?:\s+"(?:[^"\\]|\\.)*")+)\s*$`)
	wantStr = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// TestLintFixtures holds the checks to the fixtures' `// want` comments:
// every want matched by a finding on its line, every finding by a want.
func TestLintFixtures(t *testing.T) {
	m := loadModule(t)
	fset := m.graph.fset
	for _, fx := range lintFixtures {
		t.Run(fx.path, func(t *testing.T) {
			f, err := parser.ParseFile(fset, fx.path+".go", fx.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			info := &types.Info{
				Types: map[ast.Expr]types.TypeAndValue{},
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
			}
			conf := types.Config{Importer: m.std}
			if _, err := conf.Check(fx.path, fset, []*ast.File{f}, info); err != nil {
				t.Fatal(err)
			}
			type want struct {
				line int
				re   *regexp.Regexp
			}
			var wants []want
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					sub := wantRe.FindStringSubmatch(c.Text)
					if sub == nil {
						continue
					}
					line := fset.Position(c.Pos()).Line
					if sub[1] != "" {
						off, _ := strconv.Atoi(sub[1][1:])
						line += off
					}
					for _, q := range wantStr.FindAllString(sub[2], -1) {
						s, _ := strconv.Unquote(q)
						wants = append(wants, want{line, regexp.MustCompile(s)})
					}
				}
			}
			for _, fd := range lint(fset, fx.path, []*ast.File{f}, info) {
				line := fset.Position(fd.pos).Line
				i := slices.IndexFunc(wants, func(w want) bool { return w.line == line && w.re.MatchString(fd.msg) })
				if i < 0 {
					t.Errorf("line %d: unexpected finding: %s", line, fd.msg)
					continue
				}
				wants = slices.Delete(wants, i, i+1)
			}
			for _, w := range wants {
				t.Errorf("line %d: no finding matches %q", w.line, w.re)
			}
		})
	}
}

type lintFinding struct {
	pos token.Pos
	msg string
}

// lintPass holds one package's annotations and collects its findings.
type lintPass struct {
	fset     *token.FileSet
	info     *types.Info
	anns     map[annotation]bool
	findings []lintFinding
}

// annotation is one //lint:<name> comment with a reason, by file and line.
type annotation struct {
	file string
	line int
	name string
}

// lint runs both checks on one type-checked package.
func lint(fset *token.FileSet, path string, files []*ast.File, info *types.Info) []lintFinding {
	p := &lintPass{fset: fset, info: info, anns: map[annotation]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				p.annotate(c)
			}
		}
	}
	for _, f := range files {
		if isCritical(path) {
			p.simtime(f, path)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				p.detorder(fd.Body)
			}
		}
	}
	return p.findings
}

func (p *lintPass) reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, lintFinding{pos, fmt.Sprintf(format, args...)})
}

// annotate records c if it is a //lint:walltime or //lint:unordered
// annotation, and reports it if it gives no reason. Other names are
// ignored: a misspelt one fails to suppress, and the finding shows it.
func (p *lintPass) annotate(c *ast.Comment) {
	_, rest, ok := strings.Cut(c.Text, "//lint:")
	if !ok {
		return
	}
	name, reason, _ := strings.Cut(rest, " ")
	if name != "walltime" && name != "unordered" {
		return
	}
	if strings.TrimSpace(reason) == "" {
		p.reportf(c.Pos(), "//lint:%s annotation needs a justification: //lint:%s <why>", name, name)
		return
	}
	at := p.fset.Position(c.Pos())
	p.anns[annotation{at.Filename, at.Line, name}] = true
}

// annotated reports whether a //lint:<name> annotation sits on pos's line
// or the line above.
func (p *lintPass) annotated(name string, pos token.Pos) bool {
	at := p.fset.Position(pos)
	return p.anns[annotation{at.Filename, at.Line, name}] || p.anns[annotation{at.Filename, at.Line - 1, name}]
}

// wallTime are the time functions that read or schedule on the wall clock.
var wallTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRand are the math/rand functions backed by the process-global,
// non-replayable source.
var globalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true,
	"Seed": true, "Read": true,
}

// simtime reports the wall-clock and global math/rand calls in f. The
// type checker resolves each qualifier, so aliased imports are seen.
func (p *lintPass) simtime(f *ast.File, path string) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var what string
		switch imported := p.pkgOf(sel); {
		case imported == "time" && wallTime[sel.Sel.Name]:
			what = "wall-clock call time." + sel.Sel.Name
		case imported == "math/rand" && globalRand[sel.Sel.Name]:
			what = "global math/rand call rand." + sel.Sel.Name
		default:
			return true
		}
		if !p.annotated("walltime", sel.Pos()) {
			p.reportf(sel.Pos(),
				"%s in determinism-critical package %s: use sim time (Engine.Now/vtime.Clock) or a seeded rand.Rand, or annotate with //lint:walltime <why>",
				what, path)
		}
		return true
	})
}

// pkgOf returns the import path sel's qualifier names, or "" if sel is
// not a qualified identifier.
func (p *lintPass) pkgOf(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := p.info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Path()
		}
	}
	return ""
}

// detorder checks every range over a map in one function body, function
// literals included.
func (p *lintPass) detorder(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if tv, ok := p.info.Types[rs.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !p.annotated("unordered", rs.Pos()) {
					p.mapRange(body, rs)
				}
			}
		}
		return true
	})
}

// mapRange reports rs once, at its first effect that lets map order out.
func (p *lintPass) mapRange(body *ast.BlockStmt, rs *ast.RangeStmt) {
	var appends []ast.Expr // append targets declared outside the loop
	diagnosed := false
	report := func(format string, args ...any) {
		if !diagnosed {
			p.reportf(rs.Pos(), format, args...)
			diagnosed = true
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			report("map iteration order reaches a channel send at line %d; iterate sorted keys instead (or annotate //lint:unordered <why>)",
				p.fset.Position(n.Pos()).Line)
		case *ast.CallExpr:
			if name, ok := p.writerCall(n); ok {
				report("map iteration order reaches ordered sink %s at line %d; collect and sort keys first (or annotate //lint:unordered <why>)",
					name, p.fset.Position(n.Pos()).Line)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !p.isBuiltin(call, "append") || i >= len(n.Lhs) {
					continue
				}
				if obj := p.objectOf(rootIdent(n.Lhs[i])); obj != nil && !declaredWithin(obj, rs.Body) {
					appends = append(appends, n.Lhs[i])
				}
			}
		}
		return !diagnosed
	})
	for _, target := range appends {
		if !diagnosed && !p.sortedAfter(body, rs, target) && p.escapes(body, rs, target) {
			report("map iteration appends to %s, which escapes this function without a dominating sort; collect keys, sort, then build it in key order (or annotate //lint:unordered <why>)",
				types.ExprString(target))
		}
	}
}

// writerCall reports whether call writes through an io.Writer, as its
// receiver or as an argument.
func (p *lintPass) writerCall(call *ast.CallExpr) (string, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// A package qualifier (fmt.Fprintf) has no type; its writer
		// argument is caught below.
		if tv, ok := p.info.Types[sel.X]; ok && implementsWriter(tv.Type) {
			return types.ExprString(sel), true
		}
	}
	if p.isBuiltin(call, "") {
		return "", false
	}
	for _, arg := range call.Args {
		if tv, ok := p.info.Types[arg]; ok && implementsWriter(tv.Type) {
			return types.ExprString(call.Fun), true
		}
	}
	return "", false
}

// isBuiltin reports whether call calls the named builtin, or any builtin
// if name is "".
func (p *lintPass) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || (name != "" && id.Name != name) {
		return false
	}
	_, ok = p.info.Uses[id].(*types.Builtin)
	return ok
}

func (p *lintPass) objectOf(id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	if o := p.info.Uses[id]; o != nil {
		return o
	}
	return p.info.Defs[id]
}

// sortedAfter reports whether a sort call whose argument mentions target
// follows the range statement anywhere in the function.
func (p *lintPass) sortedAfter(body *ast.BlockStmt, rs *ast.RangeStmt, target ast.Expr) bool {
	text := types.ExprString(target)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() >= rs.End() && p.isSortCall(call) {
			for _, arg := range call.Args {
				found = found || strings.Contains(types.ExprString(arg), text)
			}
		}
		return !found
	})
	return found
}

// isSortCall recognizes the sort and slices package ordering functions.
func (p *lintPass) isSortCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch p.pkgOf(sel) {
	case "sort":
		switch sel.Sel.Name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	case "slices":
		return strings.HasPrefix(sel.Sel.Name, "Sort")
	}
	return false
}

// escapes reports whether target's slice leaves the function carrying its
// map-ordered contents: rooted outside it (a receiver field, package or
// outer-closure variable), or after the loop returned or passed to a call
// that is not a sort or a builtin.
func (p *lintPass) escapes(body *ast.BlockStmt, rs *ast.RangeStmt, target ast.Expr) bool {
	obj := p.objectOf(rootIdent(target))
	if !declaredWithin(obj, body) {
		return true
	}
	escaped := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			escaped = escaped || n.Pos() > rs.End() && p.mentions(n, obj)
		case *ast.CallExpr:
			escaped = escaped || n.Pos() > rs.End() && !p.isSortCall(n) && !p.isBuiltin(n, "") &&
				slices.ContainsFunc(n.Args, func(arg ast.Expr) bool { return p.mentions(arg, obj) })
		}
		return !escaped
	})
	return escaped
}

func (p *lintPass) mentions(n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && p.objectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() != token.NoPos && node.Pos() <= obj.Pos() && obj.Pos() < node.End()
}

// rootIdent returns the leftmost identifier of an lvalue (st.Jobs → st,
// keys → keys), or nil for anything stranger.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// writer is io.Writer, built from its method so no package is imported.
var writer = types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Write",
	types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewParam(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(types.NewParam(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewParam(token.NoPos, nil, "err", types.Universe.Lookup("error").Type())),
		false))}, nil).Complete()

// implementsWriter reports whether t, or a pointer to t (an addressable
// bytes.Buffer), implements io.Writer.
func implementsWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if types.Implements(t, writer) {
		return true
	}
	_, isPtr := t.Underlying().(*types.Pointer)
	return !isPtr && types.Implements(types.NewPointer(t), writer)
}
