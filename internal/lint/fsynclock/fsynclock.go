// Package fsynclock pins PERSISTENCE.md's group-commit contract:
// flush under the stripe mutex, fsync outside it.
//
// The striped WAL's whole write-path win (PR 5) rests on one locking
// rule: a stripe's append mutex (`mu`) orders appends and buffered
// flushes, while fsync happens under the separate fsyncMu so one
// writer's device flush covers every append flushed before it — and
// never blocks the writers behind it. An fsync that sneaks under `mu`
// silently serializes every writer of that stripe on device latency,
// undoing group commit without failing a single test.
//
// The analyzer walks each function of the WAL package tracking which
// `.mu`-named mutexes are held (block-structurally: branches, loops,
// locally-defined unlock closures and deferred unlocks are understood)
// and flags, while any is held:
//
//   - calls to (*os.File).Sync — a device flush under the append mutex;
//   - calls to functions or methods outside package os whose name
//     starts with "sync" or "Sync" — the sync helpers either fsync
//     (storage.SyncDir) or acquire stripe locks themselves (Store.Sync,
//     stripe.syncTo), so calling them with `mu` held is an
//     fsync-under-mutex or a deadlock;
//   - calls to storage.WriteFileAtomic, which fsyncs the file it
//     commits and its directory although its name does not say so.
//
// Functions whose name ends in "Locked" are analyzed as if their
// receiver's `mu` were held (that is the repo's calling convention),
// and calls *to* them are not themselves flagged — the violation shows
// up at the definition, once. fsyncMu is deliberately not tracked:
// fsync under fsyncMu is the design, not a violation. The one
// deliberate exception — segment rotation seals the old file under
// both locks — carries a //panda:allow directive where it happens.
package fsynclock

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/pglp/panda/internal/lint/analysis"
)

// Analyzer flags fsync (and sync-helper) calls made while a stripe or
// shard append mutex is held.
var Analyzer = &analysis.Analyzer{
	Name: "fsynclock",
	Doc:  "no fsync may happen while a stripe/shard append mutex (.mu) is held: flush under the mutex, fsync outside it",
	Run:  run,
}

// inScope limits the analyzer to the WAL (the only place file handles
// and append mutexes coexist) and to testdata packages.
func inScope(path string) bool {
	return !strings.Contains(path, "/") || strings.HasSuffix(path, "/storage/wal")
}

func run(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil, nil
}

// held is the set of append mutexes currently locked, keyed by the
// rendered selector path ("st.mu").
type held map[string]bool

func (h held) clone() held {
	c := make(held, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

// union folds o into h.
func (h held) union(o held) {
	for k := range o {
		h[k] = true
	}
}

// any returns an arbitrary held mutex name, "" when none.
func (h held) any() string {
	for k := range h {
		return k
	}
	return ""
}

// walker carries per-function analysis state.
type walker struct {
	pass *analysis.Pass
	// closures maps locally-defined function values (unlock := func()
	// {...}) to their bodies, so calling one applies its lock effects.
	closures map[types.Object]*ast.FuncLit
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	w := &walker{pass: pass, closures: map[types.Object]*ast.FuncLit{}}
	h := held{}
	// The *Locked naming convention: callers hold the receiver's mu.
	if strings.HasSuffix(fd.Name.Name, "Locked") && fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		h[fd.Recv.List[0].Names[0].Name+".mu"] = true
	}
	w.seq(fd.Body.List, h)
}

// seq walks a statement sequence, mutating h, and reports whether the
// sequence terminates (returns) rather than falling through.
func (w *walker) seq(stmts []ast.Stmt, h held) (terminated bool) {
	for _, s := range stmts {
		if w.stmt(s, h) {
			return true
		}
	}
	return false
}

// stmt applies one statement's lock effects and checks its calls.
func (w *walker) stmt(s ast.Stmt, h held) (terminated bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, h)
	case *ast.AssignStmt:
		w.recordClosures(s)
		for _, e := range s.Rhs {
			w.expr(e, h)
		}
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e, h)
				return false
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, h)
		}
		return true
	case *ast.DeferStmt:
		// defer x.mu.Unlock() keeps the mutex held for the rest of the
		// function — exactly what the tracker already models by not
		// releasing it. Deferred closures run at return, when everything
		// locked now is (at the latest) still held: check their bodies
		// against the current set.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.seq(fl.Body.List, h.clone())
		}
	case *ast.BlockStmt:
		return w.seq(s.List, h)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, h)
		}
		w.expr(s.Cond, h)
		thenH := h.clone()
		thenTerm := w.seq(s.Body.List, thenH)
		elseH := h.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseH)
		}
		merge(h, thenH, thenTerm, elseH, elseTerm)
		return thenTerm && elseTerm
	case *ast.ForStmt, *ast.RangeStmt:
		body, cond := forParts(s)
		if cond != nil {
			w.expr(cond, h)
		}
		// Loop bodies are modeled as executing once: the body's net lock
		// effect carries out of the loop. This is what makes the paired
		// idiom legible — one loop locking every stripe, a later loop
		// unlocking them (InsertBatch) — at the cost of assuming loops
		// run at least once.
		bodyH := h.clone()
		w.seq(body.List, bodyH)
		for k := range h {
			delete(h, k)
		}
		h.union(bodyH)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.cases(s, h)
	case *ast.GoStmt:
		// A spawned goroutine does not hold the spawner's locks.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.seq(fl.Body.List, held{})
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, h)
	}
	return false
}

// merge folds the fallthrough states of two branches back into h. The
// analysis is a must-hold analysis: a mutex counts as held after the
// branch point only if every non-terminating path still holds it.
// (Branches that return settled their own accounts; guarded locking —
// one loop locking each stripe behind an if, a later loop unlocking
// them the same way — would otherwise read as held forever.)
func merge(h, thenH held, thenTerm bool, elseH held, elseTerm bool) {
	var outs []held
	if !thenTerm {
		outs = append(outs, thenH)
	}
	if !elseTerm {
		outs = append(outs, elseH)
	}
	intersectInto(h, outs)
}

// intersectInto replaces h with the intersection of outs (empty when
// outs is empty).
func intersectInto(h held, outs []held) {
	for k := range h {
		delete(h, k)
	}
	if len(outs) == 0 {
		return
	}
	for k := range outs[0] {
		inAll := true
		for _, o := range outs[1:] {
			if !o[k] {
				inAll = false
				break
			}
		}
		if inAll {
			h[k] = true
		}
	}
}

// forParts extracts the body and condition of a for/range statement.
func forParts(s ast.Stmt) (*ast.BlockStmt, ast.Expr) {
	switch s := s.(type) {
	case *ast.ForStmt:
		return s.Body, s.Cond
	case *ast.RangeStmt:
		return s.Body, s.X
	}
	return nil, nil
}

// cases walks every case clause of a switch/select from the current
// state and merges the fallthrough states.
func (w *walker) cases(s ast.Stmt, h held) (terminated bool) {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, h)
		}
		if s.Tag != nil {
			w.expr(s.Tag, h)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	if len(clauses) == 0 {
		return false
	}
	var outs []held
	allTerm, hasDefault := true, false
	for _, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.expr(e, h)
			}
			hasDefault = hasDefault || c.List == nil
			body = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.stmt(c.Comm, h)
			}
			hasDefault = hasDefault || c.Comm == nil
			body = c.Body
		}
		cH := h.clone()
		if !w.seq(body, cH) {
			outs = append(outs, cH)
			allTerm = false
		}
	}
	if !hasDefault {
		// No default: the switch may fall through untouched.
		outs = append(outs, h.clone())
		allTerm = false
	}
	intersectInto(h, outs)
	return allTerm
}

// recordClosures remembers `name := func() {...}` bindings so calling
// name later applies the closure's lock effects (the WAL's unlock
// helper idiom).
func (w *walker) recordClosures(s *ast.AssignStmt) {
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		fl, ok := s.Rhs[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		if obj := w.pass.TypesInfo.Defs[id]; obj != nil {
			w.closures[obj] = fl
		} else if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
			w.closures[obj] = fl
		}
	}
}

// expr applies lock effects and checks every call inside e, in source
// order.
func (w *walker) expr(e ast.Expr, h held) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// Defining a closure has no lock effects; its body is
			// analyzed where it is called (or deferred, or spawned).
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		w.call(call, h)
		return true
	})
}

// call classifies one call expression.
func (w *walker) call(call *ast.CallExpr, h held) {
	// Lock/Unlock on a selector path ending in .mu.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if name := sel.Sel.Name; name == "Lock" || name == "Unlock" {
			if path := render(sel.X); strings.HasSuffix(path, ".mu") {
				if name == "Lock" {
					h[path] = true
				} else {
					delete(h, path)
				}
				return
			}
		}
	}
	// A locally-defined closure: inline its effects.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
			if fl, ok := w.closures[obj]; ok {
				w.seq(fl.Body.List, h)
				return
			}
		}
	}
	fn := w.pass.CalleeFunc(call)
	if fn == nil {
		return
	}
	// Calls to *Locked functions are the convention, not a violation:
	// their bodies are checked at the definition.
	if strings.HasSuffix(fn.Name(), "Locked") {
		return
	}
	if mu := h.any(); mu != "" && isSyncCall(fn) {
		w.pass.Reportf(call.Pos(),
			"%s called while append mutex %s is held: flush under the mutex, fsync outside it (PERSISTENCE.md group commit)", fn.Name(), mu)
	}
}

// isSyncCall reports whether fn is a device flush, one of the
// package's own sync helpers, or the atomic file writer.
func isSyncCall(fn *types.Func) bool {
	if fn.Name() == "Sync" && receiverIsOSFile(fn) {
		return true
	}
	// Sync helpers of any package but os (stripe.sync, syncTo,
	// Store.Sync, storage.SyncDir): they fsync or take stripe locks
	// themselves. storage.WriteFileAtomic fsyncs under another name.
	if fn.Pkg() == nil || fn.Pkg().Path() == "os" {
		return false
	}
	lower := strings.ToLower(fn.Name())
	return strings.HasPrefix(lower, "sync") || fn.Name() == "WriteFileAtomic"
}

// receiverIsOSFile reports whether fn's receiver is *os.File.
func receiverIsOSFile(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "File" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "os"
}

// render prints a selector chain of identifiers ("st.mu", "s.f");
// anything more exotic renders as "?" and is not tracked.
func render(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	}
	return "?"
}
