// Package lockheld implements the gae-lint analyzer that enforces the
// repo's *Locked method-suffix contract. A deployment has one lock, taken
// at its boundary (core.GAE), and the services under it hold none; the
// contract remains where a lock guards a helper its callers must hold it
// for — core's emitStateLocked under the deployment's lock, and the
// durable journal's flushLocked under the journal's.
//
// The contract, as enforced:
//
//  1. A method whose name ends in "Locked" asserts "my receiver's
//     mutex is held on entry". Calling p.fooLocked() is legal only
//     (a) from inside another *Locked method on the same receiver
//     object — the transitive call-graph case — or (b) under a
//     dominating p.mu.Lock() / p.mu.RLock() (any sync.Mutex/RWMutex
//     reachable from the same base object, embedded mutexes included)
//     with no intervening Unlock on the fallthrough path.
//  2. *Locked methods must not be exported: the contract is
//     package-local, and an exported *Locked method would invite
//     callers who cannot hold the private mutex.
//  3. A *Locked method must not lock its receiver's own mutex — it
//     holds it by contract, and a re-lock is a self-deadlock
//     (sync.Mutex is not reentrant).
//
// Domination is computed with a block-structured scan of the enclosing
// function: a Lock dominates the call if it appears on the
// statement path leading to the call with no intervening Unlock; an
// Unlock inside a conditional whose block terminates (early-return
// error paths) does not clear the held state; `defer mu.Unlock()`
// never clears it. Function literals inherit the held state at their
// definition point — the callback-registered-under-lock idiom — and
// may re-establish it with their own Lock.
//
// A call site that is safe for reasons the analysis cannot see can be
// annotated:
//
//	//lint:lockheld <justification>
package lockheld

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/lint/analysis"
	"repro/tools/lint/lintutil"
)

// Analyzer is the lockheld analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockheld",
	Doc:  "enforce the *Locked method-suffix contract: callers hold the receiver's mutex, *Locked methods stay unexported and never self-lock (suppress with //lint:lockheld <why>)",
	Run:  run,
}

// AnnotationName is the suppression annotation lockheld honors.
const AnnotationName = "lockheld"

func run(pass *analysis.Pass) (any, error) {
	anns := lintutil.CollectAnnotations(pass, AnnotationName)
	c := &checker{pass: pass, anns: anns, decls: make(map[types.Object]*ast.FuncDecl)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				c.decls[pass.TypesInfo.Defs[fd.Name]] = fd
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			c.checkDecl(fd)
		}
		c.checkCalls(f)
	}
	return nil, nil
}

type checker struct {
	pass  *analysis.Pass
	anns  *lintutil.Annotations
	decls map[types.Object]*ast.FuncDecl
}

func lockedName(name string) bool {
	return len(name) > len("Locked") && strings.HasSuffix(name, "Locked")
}

// checkDecl enforces the declaration-side rules on one function.
func (c *checker) checkDecl(fd *ast.FuncDecl) {
	if fd.Recv == nil || !lockedName(fd.Name.Name) {
		return
	}
	if ast.IsExported(fd.Name.Name) && !c.anns.Suppressed(AnnotationName, fd.Name.Pos()) {
		c.pass.Reportf(fd.Name.Pos(),
			"*Locked method %s must not be exported: the lock it asserts is package-private", fd.Name.Name)
	}
	recv := receiverIdent(fd)
	if recv == nil || fd.Body == nil {
		return
	}
	// Self-locking the receiver's own mutex inside the method body
	// proper (function literals excluded: a callback defined here runs
	// later, where taking the lock is the norm).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		ev, ok := c.mutexEvent(call)
		if !ok || !ev.acquire {
			return true
		}
		// Only the receiver's primary mutex — the conventional `mu`
		// field or an embedded mutex — is held by contract. Auxiliary
		// leaf mutexes (p.relMu) are different locks; a
		// *Locked method may layer them briefly.
		if ev.base == recv.Name || ev.base == recv.Name+".mu" {
			if !c.anns.Suppressed(AnnotationName, call.Pos()) {
				c.pass.Reportf(call.Pos(),
					"*Locked method %s locks %s itself: it holds that mutex by contract (self-deadlock)",
					fd.Name.Name, ev.base)
			}
		}
		return true
	})
}

// checkCalls verifies every call to a *Locked method in the file.
func (c *checker) checkCalls(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selInfo, ok := c.pass.TypesInfo.Selections[sel]
		if !ok || selInfo.Kind() != types.MethodVal {
			return true
		}
		callee := selInfo.Obj()
		if !lockedName(callee.Name()) || callee.Pkg() != c.pass.Pkg {
			return true
		}
		if c.anns.Suppressed(AnnotationName, call.Pos()) {
			return true
		}
		guard := exprText(sel.X)
		if guard == "" {
			return true // receiver too complex to name; out of scope
		}
		if !c.lockHeldAt(f, call, sel, guard) {
			c.pass.Reportf(call.Pos(),
				"call to *Locked method %s.%s without holding its mutex: call from a *Locked method on the same receiver or under a dominating %s.mu.Lock() (or annotate //lint:lockheld <why>)",
				guard, callee.Name(), guard)
		}
		return true
	})
}

// lockHeldAt decides whether guard's mutex is held at the call,
// climbing from the innermost enclosing function outwards through
// function-literal definition points.
func (c *checker) lockHeldAt(f *ast.File, call *ast.CallExpr, sel *ast.SelectorExpr, guard string) bool {
	path := enclosingPath(f, call.Pos())
	at := call.Pos()
	for i := len(path) - 1; i >= 0; i-- {
		switch fn := path[i].(type) {
		case *ast.FuncLit:
			if fn.Body != nil && c.scanHeld(fn.Body.List, at, guard, "") != "" {
				return true
			}
			// Locking-wrapper inference: a literal passed directly to a
			// method whose body takes its own receiver's lock at the top
			// level (the p.transition(id, func(j *job) error {...})
			// idiom) runs with that receiver's mutex held.
			if i > 0 {
				if call, ok := path[i-1].(*ast.CallExpr); ok && isArg(call, fn) {
					if recvText, ok := c.lockingWrapper(call); ok && recvText == guard {
						return true
					}
				}
			}
			at = fn.Pos() // inherit the held state at the definition point
		case *ast.FuncDecl:
			// Transitive case: inside a *Locked method on the same
			// receiver object, the mutex is held by contract for the
			// method's whole extent — interior lock/unlock pairs on
			// auxiliary leaf mutexes do not surrender it.
			if lockedName(fn.Name.Name) {
				if recv := receiverIdent(fn); recv != nil {
					if id, ok := sel.X.(*ast.Ident); ok && c.objectOf(id) == c.objectOf(recv) {
						return true
					}
				}
			}
			if fn.Body != nil {
				return c.scanHeld(fn.Body.List, at, guard, "") != ""
			}
			return false
		}
	}
	return false
}

// scanHeld walks a statement list up to position at, tracking which of
// guard's mutexes (if any) is held when control reaches at. The state
// is the establishing mutex base ("g.persistMu"), or "" when none is
// held: an Unlock only clears the exact mutex that was locked, so a
// balanced lock/unlock pair on a different mutex of the same receiver
// cannot surrender the guard. Statements strictly before at update the
// state; the statement containing at is descended into.
func (c *checker) scanHeld(stmts []ast.Stmt, at token.Pos, guard, held string) string {
	for _, s := range stmts {
		if s.Pos() <= at && at <= s.End() {
			return c.scanInto(s, at, guard, held)
		}
		if at < s.Pos() {
			break
		}
		held = c.applyStmt(s, guard, held)
	}
	return held
}

// scanInto descends into the sub-block of s that contains at.
func (c *checker) scanInto(s ast.Stmt, at token.Pos, guard, held string) string {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return c.scanHeld(s.List, at, guard, held)
	case *ast.IfStmt:
		if s.Init != nil && !within(s.Init, at) {
			held = c.applyStmt(s.Init, guard, held)
		}
		if within(s.Body, at) {
			return c.scanHeld(s.Body.List, at, guard, held)
		}
		if s.Else != nil && within(s.Else, at) {
			return c.scanInto(s.Else, at, guard, held)
		}
	case *ast.ForStmt:
		if s.Init != nil && !within(s.Init, at) {
			held = c.applyStmt(s.Init, guard, held)
		}
		if within(s.Body, at) {
			return c.scanHeld(s.Body.List, at, guard, held)
		}
	case *ast.RangeStmt:
		if within(s.Body, at) {
			return c.scanHeld(s.Body.List, at, guard, held)
		}
	case *ast.SwitchStmt:
		return c.scanClauses(s.Body, at, guard, held)
	case *ast.TypeSwitchStmt:
		return c.scanClauses(s.Body, at, guard, held)
	case *ast.SelectStmt:
		return c.scanClauses(s.Body, at, guard, held)
	case *ast.LabeledStmt:
		return c.scanInto(s.Stmt, at, guard, held)
	}
	// The position sits inside a simple statement (e.g. the call's own
	// ExprStmt): no earlier events within it to consider.
	return held
}

func (c *checker) scanClauses(body *ast.BlockStmt, at token.Pos, guard, held string) string {
	for _, cl := range body.List {
		if !within(cl, at) {
			continue
		}
		switch cl := cl.(type) {
		case *ast.CaseClause:
			return c.scanHeld(cl.Body, at, guard, held)
		case *ast.CommClause:
			return c.scanHeld(cl.Body, at, guard, held)
		}
	}
	return held
}

// applyStmt folds one fully-executed statement into the held state.
//
//   - a direct guard-rooted Lock()/RLock() establishes held (recording
//     which mutex)
//   - a direct Unlock()/RUnlock() of that same mutex clears it
//   - `defer …Unlock()` keeps it (runs at return)
//   - a compound statement clears held if it unlocks the held mutex on
//     any fallthrough path (an unlock whose block ends in return/panic
//     — the early-error idiom — does not count); a Lock buried in a
//     conditional does not dominate and so never establishes held
func (c *checker) applyStmt(s ast.Stmt, guard, held string) string {
	if es, ok := s.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok {
			if ev, ok := c.mutexEvent(call); ok {
				if ev.acquire && guardMatches(guard, ev.base) {
					return ev.base
				}
				if !ev.acquire && ev.base == held {
					return ""
				}
				return held
			}
		}
	}
	if _, ok := s.(*ast.DeferStmt); ok {
		return held
	}
	if held != "" && c.unlocksOnFallthrough(s, held) {
		return ""
	}
	return held
}

// unlocksOnFallthrough reports whether s contains a non-deferred unlock
// of the held mutex outside function literals, in a position that can
// fall through to the code after s.
func (c *checker) unlocksOnFallthrough(s ast.Stmt, held string) bool {
	found := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.BlockStmt:
			if terminates(n.List) {
				// Every statement in a terminating block exits the
				// function; its unlock cannot reach the code after s.
				return false
			}
		case *ast.CaseClause:
			if terminates(n.Body) {
				return false
			}
		case *ast.CommClause:
			if terminates(n.Body) {
				return false
			}
		case *ast.CallExpr:
			if ev, ok := c.mutexEvent(n); ok && !ev.acquire && ev.base == held {
				found = true
				return false
			}
		}
		return true
	}
	ast.Inspect(s, walk)
	return found
}

// isArg reports whether lit is one of call's direct arguments.
func isArg(call *ast.CallExpr, lit *ast.FuncLit) bool {
	for _, a := range call.Args {
		if a == ast.Expr(lit) {
			return true
		}
	}
	return false
}

// lockingWrapper reports whether call invokes a method of this package
// whose body acquires its own receiver's mutex in a top-level
// statement, returning the receiver expression text at the call site
// ("p" for p.transition(...)). Callbacks handed to such a wrapper run
// under that receiver's lock.
func (c *checker) lockingWrapper(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selInfo, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || selInfo.Kind() != types.MethodVal {
		return "", false
	}
	decl := c.decls[selInfo.Obj()]
	if decl == nil || decl.Body == nil {
		return "", false
	}
	recv := receiverIdent(decl)
	if recv == nil {
		return "", false
	}
	for _, s := range decl.Body.List {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		inner, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		if ev, ok := c.mutexEvent(inner); ok && ev.acquire && guardMatches(recv.Name, ev.base) {
			return exprText(sel.X), true
		}
	}
	return "", false
}

// within reports whether pos falls inside n's source range.
func within(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos <= n.End()
}

// terminates reports whether a statement list always transfers control
// away (return, branch, panic) as its final act.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// mutexEvent classifies a call as a sync.Mutex/RWMutex Lock/Unlock
// family call, returning the textual base it guards ("p.mu" → base
// "p.mu", field "mu"; embedded `p.Lock()` → base "p").
type mutexEv struct {
	base    string
	field   string
	acquire bool
}

func (c *checker) mutexEvent(call *ast.CallExpr) (mutexEv, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return mutexEv{}, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return mutexEv{}, false
	}
	selInfo, ok := c.pass.TypesInfo.Selections[sel]
	if !ok {
		return mutexEv{}, false
	}
	obj := selInfo.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return mutexEv{}, false
	}
	base := exprText(sel.X)
	if base == "" {
		return mutexEv{}, false
	}
	field := base
	if i := strings.LastIndex(base, "."); i >= 0 {
		field = base[i+1:]
	}
	return mutexEv{base: base, field: field, acquire: acquire}, true
}

// guardMatches reports whether a mutex rooted at base guards calls on
// guard: the base is the guard object itself (embedded mutex) or a
// field chain hanging off it ("p" is guarded by "p.mu", "g" by
// "g.persistMu" — primary mutexes are not always named mu).
func guardMatches(guard, base string) bool {
	return base == guard || strings.HasPrefix(base, guard+".")
}

func (c *checker) objectOf(id *ast.Ident) types.Object {
	if o := c.pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return c.pass.TypesInfo.Defs[id]
}

func receiverIdent(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return fd.Recv.List[0].Names[0]
}

// enclosingPath returns the chain of nodes containing pos, outermost
// first (the file) to innermost last.
func enclosingPath(f *ast.File, pos token.Pos) []ast.Node {
	var path []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() <= pos && pos < n.End() {
			path = append(path, n)
			return true
		}
		return false
	})
	return path
}

// exprText renders simple receiver/selector chains ("p", "p.peer",
// "(*p).mu"); anything with calls or indexing returns "".
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprText(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprText(x.X)
	case *ast.StarExpr:
		return exprText(x.X)
	}
	return ""
}
