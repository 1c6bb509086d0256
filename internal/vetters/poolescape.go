package vetters

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolEscape enforces the pooled-buffer discipline of the serving layer
// (evaluation buffers and NDJSON encoders in internal/server): a buffer
// taken from a pool is scoped to one request or one call. It
// must go back — via Put, usually deferred — and it must not outlive
// the scope by being returned or stored into longer-lived state, or two
// requests end up sharing (and concurrently mutating) one buffer.
//
// Checks, per function:
//
//  1. a sync.Pool Get with no Put on the same pool anywhere in the
//     function — unless the function is a get*/new* accessor that
//     returns the pooled value (the repo's wrapper idiom, paired at the
//     call sites);
//  2. a call to a package-local get* accessor with no call to the
//     matching put* in the same function (getEvalBuf/putEvalBuf, ...);
//  3. a pooled value (from either source) escaping through a return
//     statement (outside accessors) or an assignment to a struct field
//     or package-level variable.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc: "flags sync.Pool Gets without a matching Put, unpaired get*/put* buffer accessors, " +
		"and pooled buffers escaping their request or call scope via returns or stores",
	Run: runPoolEscape,
}

func runPoolEscape(p *Pass) {
	pairs := accessorPairs(p)
	wrappers := putWrappers(p)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolFunc(p, fd, pairs, wrappers)
		}
	}
}

// putWrappers maps package-level function names to the set of pool
// expressions they Put to — the repo's clear-before-put idiom
// (putEvalBuf nils the tuple references, then Puts). A direct Get is
// matched by a call to a wrapper that Puts to the same pool.
func putWrappers(p *Pass) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Put" || !isSyncPool(p.Info.TypeOf(sel.X)) {
					return true
				}
				key := exprString(sel.X)
				if out[fd.Name.Name] == nil {
					out[fd.Name.Name] = map[string]bool{}
				}
				out[fd.Name.Name][key] = true
				return true
			})
		}
	}
	return out
}

// accessorPairs finds the package's get*/put* accessor pairs: for every
// top-level getX with a matching top-level putX, call sites must pair
// them.
func accessorPairs(p *Pass) map[string]string {
	names := map[string]bool{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				names[fd.Name.Name] = true
			}
		}
	}
	pairs := map[string]string{} // getX → putX
	for name := range names {
		if strings.HasPrefix(name, "get") {
			put := "put" + strings.TrimPrefix(name, "get")
			if names[put] {
				pairs[name] = put
			}
		}
	}
	return pairs
}

// isAccessor reports whether the function is a pool accessor by the
// repo's naming convention: get*/new* functions may return pooled
// values; their call sites carry the pairing obligation.
func isAccessor(name string) bool {
	for _, prefix := range [4]string{"get", "Get", "new", "New"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func checkPoolFunc(p *Pass, fd *ast.FuncDecl, pairs map[string]string, wrappers map[string]map[string]bool) {
	type poolUse struct {
		expr ast.Expr // the pool expression of the first Get
		gets int
		puts int
	}
	pools := map[string]*poolUse{} // canonical pool expr → use
	accessorCalls := map[string][]token.Pos{}
	calledFuncs := map[string]bool{}
	pooledVars := map[types.Object]ast.Expr{} // var → acquisition site

	// recordPooled marks LHS variables of an assignment whose RHS
	// contains the acquisition call.
	recordPooled := func(assign *ast.AssignStmt, from ast.Expr) {
		for i, lhs := range assign.Lhs {
			if i >= len(assign.Rhs) && len(assign.Rhs) != 1 {
				break
			}
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if obj := p.Info.ObjectOf(id); obj != nil {
				pooledVars[obj] = from
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := directCallee(call); name != "" {
			calledFuncs[name] = true
			if _, isGet := pairs[name]; isGet {
				accessorCalls[name] = append(accessorCalls[name], call.Pos())
			}
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !isSyncPool(p.Info.TypeOf(sel.X)) {
			return true
		}
		switch sel.Sel.Name {
		case "Get":
			key := exprString(sel.X)
			u := pools[key]
			if u == nil {
				u = &poolUse{expr: sel.X}
				pools[key] = u
			}
			u.gets++
		case "Put":
			key := exprString(sel.X)
			u := pools[key]
			if u == nil {
				u = &poolUse{expr: sel.X}
				pools[key] = u
			}
			u.puts++
		}
		return true
	})

	// Track variables bound to pooled values: x := pool.Get().(T) and
	// x := getEvalBuf().
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range assign.Rhs {
			if src := pooledSource(p, rhs, pairs); src != nil {
				recordPooled(assign, src)
			}
		}
		return true
	})

	accessor := isAccessor(fd.Name.Name)

	// Rule 1: Get without Put — direct, or through a put-wrapper call.
	for key, u := range pools {
		if u.puts == 0 {
			for name := range calledFuncs {
				if wrappers[name][key] {
					u.puts++
					break
				}
			}
		}
		if u.gets > 0 && u.puts == 0 && !accessor {
			p.Reportf(u.expr.Pos(),
				"%s.Get without a matching Put in %s; return the buffer to the pool (defer %s.Put(...)), or make this a get*/new* accessor paired at the call sites",
				exprString(u.expr), fd.Name.Name, exprString(u.expr))
		}
	}

	// Rule 2: get* accessor call without the paired put*.
	for getName, positions := range accessorCalls {
		putName := pairs[getName]
		if calledFuncs[putName] {
			continue
		}
		p.Reportf(positions[0],
			"%s without a matching %s in %s; pooled buffers are request-scoped (defer %s(...))",
			getName, putName, fd.Name.Name, putName)
	}

	// Rule 3: escapes.
	if !accessor {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.ReturnStmt:
				for _, res := range v.Results {
					if obj := identObject(p, res); obj != nil {
						if _, pooled := pooledVars[obj]; pooled {
							p.Reportf(res.Pos(),
								"pooled buffer %s escapes %s via return; the pool may hand it to a concurrent caller while this one still holds it",
								obj.Name(), fd.Name.Name)
						}
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range v.Rhs {
					obj := identObject(p, rhs)
					if obj == nil {
						continue
					}
					if _, pooled := pooledVars[obj]; !pooled {
						continue
					}
					if i >= len(v.Lhs) {
						continue
					}
					if storesBeyondScope(p, v.Lhs[i]) {
						p.Reportf(rhs.Pos(),
							"pooled buffer %s stored into %s, which outlives the request/call scope",
							obj.Name(), exprString(v.Lhs[i]))
					}
				}
			}
			return true
		})
	}
}

// pooledSource reports whether rhs acquires a pooled value: a
// (possibly type-asserted, dereferenced, or sliced) sync.Pool Get, or a
// call to a paired get* accessor. Returns the acquisition expression.
func pooledSource(p *Pass, rhs ast.Expr, pairs map[string]string) ast.Expr {
	switch v := unparen(rhs).(type) {
	case *ast.TypeAssertExpr:
		return pooledSource(p, v.X, pairs)
	case *ast.StarExpr:
		return pooledSource(p, v.X, pairs)
	case *ast.SliceExpr:
		return pooledSource(p, v.X, pairs)
	case *ast.CallExpr:
		if name := directCallee(v); name != "" {
			if _, isGet := pairs[name]; isGet {
				return v
			}
		}
		if sel, ok := unparen(v.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Get" && isSyncPool(p.Info.TypeOf(sel.X)) {
			return v
		}
	}
	return nil
}

// directCallee names a plain (non-method) call target.
func directCallee(call *ast.CallExpr) string {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// identObject resolves an expression to a variable object when it is a
// bare identifier (possibly sliced: buf[:0] still aliases buf).
func identObject(p *Pass, e ast.Expr) types.Object {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		return p.Info.ObjectOf(v)
	case *ast.SliceExpr:
		return identObject(p, v.X)
	}
	return nil
}

// storesBeyondScope reports whether the assignment target outlives the
// function: a struct field (selector) or a package-level variable.
func storesBeyondScope(p *Pass, lhs ast.Expr) bool {
	switch v := unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return storesBeyondScope(p, v.X)
	case *ast.Ident:
		obj := p.Info.ObjectOf(v)
		return obj != nil && obj.Parent() == p.Pkg.Scope()
	}
	return false
}

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool {
	if t == nil {
		return false
	}
	return namedType(t, "sync", "Pool")
}
