// Package ctxpropagate enforces the context-propagation invariant that has
// held since PR 1: cancellation is threaded from the request edge down to
// the simplex, so no library code may mint its own root context. Concretely:
//
//   - context.Background() / context.TODO() are banned outside package main.
//     Legitimate detach points — the worker pool's flights and the stream
//     hubs, whose solves outlive any one request — carry a //lint:detach
//     annotation with a reason.
//   - A function that takes a context.Context must take it as its first
//     parameter, so call sites read uniformly and no ctx is buried.
//
// Test files are not loaded by the lint driver, so tests are exempt by
// construction.
package ctxpropagate

import (
	"go/ast"

	"repro/internal/lint/analysis"
)

// Analyzer flags context.Background()/TODO() outside main and non-leading
// context.Context parameters.
var Analyzer = &analysis.Analyzer{
	Name:       "ctxpropagate",
	Doc:        "context.Background/TODO outside main and annotated detach points; ctx must be the first parameter",
	Directives: []string{"detach"},
	Run:        run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Syntax {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				// Package-level initializers: no function to exempt, check
				// the expressions directly.
				checkBackground(pass, decl, false)
				continue
			}
			checkCtxFirst(pass, fd)
			if fd.Body != nil {
				checkBackground(pass, fd.Body, analysis.HasDirective(fd.Doc, "detach"))
			}
		}
	}
	return nil
}

// checkBackground reports context.Background/TODO calls under n unless the
// enclosing function is exempt (line-level //lint:detach still applies via
// the directive filter in Report).
func checkBackground(pass *analysis.Pass, n ast.Node, exempt bool) {
	if exempt {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pass.IsPkgFunc(call, "context", "Background", "TODO") {
			pass.Reportf(call.Pos(),
				"context root minted outside main: thread the caller's ctx, or annotate a legitimate detach point with //lint:detach <reason>")
		}
		return true
	})
}

// checkCtxFirst reports a context.Context parameter that is not the first.
func checkCtxFirst(pass *analysis.Pass, fd *ast.FuncDecl) {
	params := fd.Type.Params
	if params == nil {
		return
	}
	flat := 0 // parameter index, counting grouped names
	for fi, field := range params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		t := pass.TypesInfo.Types[field.Type].Type
		if t != nil && analysis.IsContextType(t) && !(fi == 0 && flat == 0) {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter of %s", fd.Name.Name)
		}
		flat += n
	}
}
