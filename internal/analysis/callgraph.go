package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CallGraph is a conservative static call graph over the analysed
// packages: an edge per direct call whose callee resolves to a declared
// function or concrete method at type-check time. Calls through
// function values, interface methods and reflection contribute no
// edges, so reachability is an under-approximation — the right
// direction for its consumers (goroleak treats "no join signal found"
// as a finding; an edge it cannot see can only make the check louder,
// never silently green).
type CallGraph struct {
	// callees maps a caller to its callees, deduplicated and ordered by
	// full name for deterministic traversal.
	callees map[*types.Func][]*types.Func
	// direct is callees restricted to calls made outside any nested
	// function literal. lockorder's summaries traverse these edges: a
	// literal's body only runs when the literal is invoked, so they
	// treat closures as opaque boundaries (like cfg.go treats them for
	// flow).
	direct map[*types.Func][]*types.Func
	// decls maps a function object to its syntax, when the declaration
	// is in one of the analysed packages.
	decls map[*types.Func]*ast.FuncDecl
}

// buildCallGraph constructs the call graph of the given packages. The
// graph spans all of them: a call from internal/serve into
// internal/rlminer is an edge when both packages are in pkgs.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		callees: make(map[*types.Func][]*types.Func),
		direct:  make(map[*types.Func][]*types.Func),
		decls:   make(map[*types.Func]*ast.FuncDecl),
	}
	for _, pkg := range pkgs {
		forEachFunc(pkg, func(fd *ast.FuncDecl, caller *types.Func) {
			g.decls[caller] = fd
			// Calls lexically inside nested function literals count
			// toward callees (full reachability) but not direct
			// (closure-opaque reachability).
			var lits []*ast.FuncLit
			forEachFuncLit(fd.Body, func(lit *ast.FuncLit) { lits = append(lits, lit) })
			inLit := func(pos token.Pos) bool {
				for _, lit := range lits {
					if lit.Body.Pos() <= pos && pos < lit.Body.End() {
						return true
					}
				}
				return false
			}
			set := make(map[*types.Func]bool)
			directSet := make(map[*types.Func]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := StaticCallee(pkg.Info, call); callee != nil {
					set[callee] = true
					if !inLit(call.Pos()) {
						directSet[callee] = true
					}
				}
				return true
			})
			g.callees[caller] = sortedFuncs(set)
			g.direct[caller] = sortedFuncs(directSet)
		})
	}
	return g
}

func sortedFuncs(set map[*types.Func]bool) []*types.Func {
	fns := make([]*types.Func, 0, len(set))
	for fn := range set {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		return fns[i].FullName() < fns[j].FullName()
	})
	return fns
}

// StaticCallee resolves the function or concrete method a call
// expression statically invokes, or nil for dynamic calls (function
// values, interface dispatch), conversions and builtins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			if fn, ok := sel.Obj().(*types.Func); ok {
				// Interface dispatch is dynamic; everything else (a
				// concrete method value) is static.
				if !isInterfaceRecv(fn) {
					return fn
				}
			}
			return nil
		}
		// Package-qualified call: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func isInterfaceRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// Callees returns fn's direct callees, in deterministic order.
func (g *CallGraph) Callees(fn *types.Func) []*types.Func { return g.callees[fn] }

// DirectCallees returns the callees fn calls outside any nested
// function literal, in deterministic order. See the direct field for
// why lockorder wants this narrower edge set.
func (g *CallGraph) DirectCallees(fn *types.Func) []*types.Func { return g.direct[fn] }

// DeclOf returns the syntax of fn's declaration, or nil when fn was
// declared outside the analysed packages.
func (g *CallGraph) DeclOf(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Reachable returns every function reachable from fn through static
// call edges, including fn itself, in deterministic (BFS) order.
func (g *CallGraph) Reachable(fn *types.Func) []*types.Func {
	seen := map[*types.Func]bool{fn: true}
	order := []*types.Func{fn}
	for i := 0; i < len(order); i++ {
		for _, callee := range g.callees[order[i]] {
			if !seen[callee] {
				seen[callee] = true
				order = append(order, callee)
			}
		}
	}
	return order
}
