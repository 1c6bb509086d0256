package vetters

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces the request-context flow contract of the serving
// layer: inside a function that already has a context (a
// context.Context parameter or an *http.Request, whose Context method
// carries the request deadline and cancellation), evaluation entry
// points — Eval*, Enumerate*, Count* — must receive that context, not a
// fresh context.Background() or context.TODO(). A background context
// silently detaches the evaluation from the request: timeouts stop
// applying and client disconnects no longer cancel the enumeration,
// re-introducing exactly the dead-connection work the per-tuple
// cancellation contract exists to prevent.
//
// Closures inherit the enclosing function's context access, so a
// handler's worker func literal is checked too.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "flags context.Background()/context.TODO() passed to Eval*/Enumerate*/Count* " +
		"inside functions that have a request context (a context.Context or *http.Request parameter)",
	Run: runCtxFlow,
}

func runCtxFlow(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFlow(p, fd.Type, fd.Body, hasRequestContext(p, fd.Type))
		}
	}
}

// checkCtxFlow walks a function body. hasCtx carries whether any
// enclosing function gives access to a request context; nested function
// literals extend it with their own parameters.
func checkCtxFlow(p *Pass, _ *ast.FuncType, body ast.Node, hasCtx bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			checkCtxFlow(p, v.Type, v.Body, hasCtx || hasRequestContext(p, v.Type))
			return false
		case *ast.CallExpr:
			if !hasCtx {
				return true
			}
			name := calleeName(v)
			if !isEvalEntryPoint(name) {
				return true
			}
			for _, arg := range v.Args {
				argCall, ok := unparen(arg).(*ast.CallExpr)
				if !ok {
					continue
				}
				for _, bg := range [2]string{"Background", "TODO"} {
					if isPkgFunc(p.Info, argCall, "context", bg) {
						p.Reportf(arg.Pos(),
							"context.%s() passed to %s inside a function that has the request context; "+
								"pass the request's context (ctx / r.Context()) so deadlines and disconnects cancel the evaluation",
							bg, name)
					}
				}
			}
		}
		return true
	})
}

// isEvalEntryPoint matches the evaluation entry points of the engine:
// Eval*, Enumerate*, Count* (EnumerateSource, EnumerateCompressedContext,
// CountPoll, ...).
func isEvalEntryPoint(name string) bool {
	for _, prefix := range [3]string{"Eval", "Enumerate", "Count"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// hasRequestContext reports whether the function type declares a
// context.Context or *http.Request parameter.
func hasRequestContext(p *Pass, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := p.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if namedType(t, "context", "Context") || namedType(t, "net/http", "Request") {
			return true
		}
		if isContextInterface(t) {
			return true
		}
	}
	return false
}

// isContextInterface also accepts interface types that embed
// context.Context (rare, but cheap to honor).
func isContextInterface(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		if namedType(iface.EmbeddedType(i), "context", "Context") {
			return true
		}
	}
	return false
}
