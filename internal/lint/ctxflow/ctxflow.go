// Package ctxflow enforces context threading on request paths.
//
// The invariant it pins: a function that already holds a request-scoped
// context — it takes a context.Context or an *http.Request parameter —
// must thread that context downward, never mint a fresh root with
// context.Background() or context.TODO(). A minted root silently
// detaches the downstream work from the caller's cancellation and
// timeout: the cluster router's upstream calls, for example, are
// bounded only because r.Context() flows into callNode; a Background()
// there would keep dialing a dead node after the client hung up.
// Request construction has the same hazard: http.NewRequest builds an
// uncancellable request, so request paths must use
// http.NewRequestWithContext.
//
// Deliberately not flagged: a function with no context in hand —
// main(), top-level CLI setup, an experiment driver — may call
// context.Background(); it is the root of its own call tree.
package ctxflow

import (
	"go/ast"
	"go/types"

	"github.com/pglp/panda/internal/lint/analysis"
)

// Analyzer flags minted context roots and uncancellable requests inside
// functions that already carry a context.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "request-path functions must thread their context.Context, not mint context.Background()/TODO() or build context-free http requests",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !carriesContext(pass, fd) {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
	return nil, nil
}

// carriesContext reports whether the function receives a request-scoped
// context: a context.Context or *http.Request parameter.
func carriesContext(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if isNamed(t, "context", "Context") {
			return true
		}
		if p, ok := t.(*types.Pointer); ok && isNamed(p.Elem(), "net/http", "Request") {
			return true
		}
	}
	return false
}

// isNamed reports whether t is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// checkBody flags minted roots and context-free request construction.
// Function literals inside the body are checked too: a goroutine
// spawned on a request path inherits the request's lifetime unless it
// deliberately detaches — which is what //panda:allow is for.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.CalleeFunc(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO"):
			pass.Reportf(call.Pos(),
				"context.%s() minted on a request path: thread the caller's context instead of detaching from its cancellation", fn.Name())
		case fn.Pkg().Path() == "net/http" && fn.Name() == "NewRequest":
			pass.Reportf(call.Pos(),
				"http.NewRequest builds an uncancellable request: use http.NewRequestWithContext with the request path's context")
		}
		return true
	})
}
