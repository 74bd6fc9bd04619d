package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// BodyClose requires every *http.Response obtained from a call in the
// HTTP-speaking packages (servingPkgs) to reach a Body.Close() on all
// CFG paths on which the response is used. An unclosed body leaks its
// connection, and under the hedged re-dispatch loop a leak per retry
// exhausts the transport's pool exactly when the cluster is already
// degraded. The dataflow is per-variable over the
// basic-block CFG: a response is "open" once assigned from a call,
// "open and used" once a field or Body is touched, and "closed" by
// v.Body.Close(). A used-open response reaching function exit — or
// being overwritten by a re-dispatch — is a finding. Responses handed
// to another function (bare v as argument or return value) transfer
// the obligation and are not tracked further; a response whose Body is
// closed by a defer is exempt. A response that is never used after the
// error check is not flagged: on the err != nil path the pointer is
// nil, and the analysis cannot separate those paths — a deliberate
// false negative in the usual conservative direction.
var BodyClose = &Check{
	Name: "bodyclose",
	Doc:  "*http.Response obtained in cluster/serve must reach Body.Close() on every path that uses it",
	Run:  runBodyClose,
}

func runBodyClose(pass *Pass) {
	if !servingPkgs[pass.Types.Name()] {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeBodyClose(pass, fd.Name.Name, fd.Body)
			forEachFuncLit(fd.Body, func(lit *ast.FuncLit) {
				analyzeBodyClose(pass, fd.Name.Name+" (func literal)", lit.Body)
			})
		}
	}
}

// inspectSkipLits walks body like ast.Inspect but does not descend
// into nested function literals: a literal body is analysed as its own
// unit.
func inspectSkipLits(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

// Response-lifetime lattice: closed/unopened < open < open-and-used.
// Merge takes the max, so any path that leaves a used response open
// dominates.
const (
	respClosed = iota
	respOpen
	respUsed
)

func analyzeBodyClose(pass *Pass, fnName string, body *ast.BlockStmt) {
	cfg := BuildCFG(body)

	// Tracked variables: assigned from a call returning *http.Response
	// in this body, outside nested literals (a literal is its own unit).
	type tracked struct {
		obj *types.Var
		def token.Pos
	}
	var vars []tracked
	seen := make(map[*types.Var]bool)
	inspectSkipLits(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, obj := range responseDefs(pass, as) {
			if !seen[obj] {
				seen[obj] = true
				vars = append(vars, tracked{obj, as.Pos()})
			}
		}
		return true
	})
	if len(vars) == 0 {
		return
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].def < vars[j].def })

	exempt := deferExempt(pass, cfg)
	for _, v := range vars {
		if exempt[v.obj] {
			continue
		}
		leaked, reassigned := closeDataflow(pass, cfg, v.obj)
		if !leaked && !reassigned {
			continue
		}
		var what string
		switch {
		case leaked && reassigned:
			what = "may be reassigned and may reach the end of " + fnName + " while its Body is unclosed"
		case reassigned:
			what = "may be reassigned while its Body is still unclosed"
		default:
			what = "may reach the end of " + fnName + " with its Body unclosed"
		}
		pass.Reportf(v.def, "*http.Response %s %s: close the body on every path that used the response, including error and retry paths", v.obj.Name(), what)
	}
}

// responseDefs returns the variables as assigns from a call returning
// *http.Response.
func responseDefs(pass *Pass, as *ast.AssignStmt) []*types.Var {
	fromCall := func(i int) bool {
		rhs := as.Rhs[0]
		if len(as.Rhs) == len(as.Lhs) && len(as.Rhs) > 1 {
			rhs = as.Rhs[i]
		}
		_, ok := ast.Unparen(rhs).(*ast.CallExpr)
		return ok
	}
	var objs []*types.Var
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" || !fromCall(i) {
			continue
		}
		var obj types.Object
		if as.Tok == token.DEFINE {
			obj = pass.Info.Defs[id]
		}
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && isResponsePtr(v.Type()) {
			objs = append(objs, v)
		}
	}
	return objs
}

// isResponsePtr recognizes *http.Response structurally: a pointer to a
// named type Response whose struct has a Body field with a Close
// method. The structural form lets fixtures declare a local Response
// instead of importing net/http (which would drag the whole package
// through the source importer in tests).
func isResponsePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Response" {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != "Body" {
			continue
		}
		ms := types.NewMethodSet(f.Type())
		for j := 0; j < ms.Len(); j++ {
			if ms.At(j).Obj().Name() == "Close" {
				return true
			}
		}
	}
	return false
}

// deferExempt discharges variables whose Body a defer closes — directly
// (defer v.Body.Close()), inside a deferred literal, or by handing the
// bare variable to a deferred call (defer drain(v)).
func deferExempt(pass *Pass, cfg *CFG) map[*types.Var]bool {
	exempt := make(map[*types.Var]bool)
	note := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && isResponsePtr(v.Type()) {
			exempt[v] = true
		}
	}
	for _, call := range cfg.Defers {
		if id := closedVar(call); id != nil {
			note(objectOf(pass, id))
			continue
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if id := closedVar(c); id != nil {
						note(objectOf(pass, id))
					}
				}
				return true
			})
			continue
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				note(objectOf(pass, id))
			}
		}
	}
	return exempt
}

// closedVar matches the v.Body.Close() pattern, returning v's ident.
func closedVar(call *ast.CallExpr) *ast.Ident {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return nil
	}
	body, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || body.Sel.Name != "Body" {
		return nil
	}
	id, ok := ast.Unparen(body.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return id
}

func objectOf(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return pass.Info.Defs[id]
}

// closeDataflow runs the per-variable lifetime dataflow to fixpoint.
// It returns whether an open-and-used response can reach the exit
// block, and whether it can be overwritten while open-and-used.
func closeDataflow(pass *Pass, cfg *CFG, obj *types.Var) (leaked, reassigned bool) {
	in := make([]int, len(cfg.Blocks)) // Exit is Blocks' last entry
	unvisited := make([]bool, len(cfg.Blocks))
	for i := range unvisited {
		unvisited[i] = true
	}
	unvisited[cfg.Entry.Index] = false

	for changed := true; changed; {
		changed = false
		for _, blk := range cfg.Blocks {
			if unvisited[blk.Index] {
				continue
			}
			out := in[blk.Index]
			for _, n := range blk.Nodes {
				out = transferClose(pass, obj, n, out, &reassigned)
			}
			for _, succ := range blk.Succs {
				idx := succ.Index
				if unvisited[idx] || out > in[idx] {
					unvisited[idx] = false
					if out > in[idx] {
						in[idx] = out
					}
					changed = true
				}
			}
		}
	}
	leaked = !unvisited[cfg.Exit.Index] && in[cfg.Exit.Index] == respUsed
	return leaked, reassigned
}

// transferClose applies one CFG node's effect on obj's state. Within a
// node, sub-expressions are visited in pre-order, which matches
// evaluation order for the patterns the check recognizes.
func transferClose(pass *Pass, obj *types.Var, node ast.Node, s int, reassigned *bool) int {
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && objectOf(pass, id) == obj
	}
	var visitExpr func(n ast.Node)
	visitExpr = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// The closure may run later (or never): if it touches
				// the variable, ownership escapes to it.
				used := false
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && objectOf(pass, id) == obj {
						used = true
					}
					return !used
				})
				if used {
					s = respClosed
				}
				return false
			case *ast.CallExpr:
				if id := closedVar(n); id != nil && objectOf(pass, id) == obj {
					s = respClosed
					for _, arg := range n.Args {
						visitExpr(arg)
					}
					return false
				}
				return true
			case *ast.SelectorExpr:
				if isObj(n.X) {
					if s >= respOpen {
						s = respUsed
					}
					return false
				}
				return true
			case *ast.BinaryExpr:
				// A nil comparison observes the pointer, not the body.
				if n.Op == token.EQL || n.Op == token.NEQ {
					xNil := pass.Info.Types[n.X].IsNil()
					yNil := pass.Info.Types[n.Y].IsNil()
					if (isObj(n.X) && yNil) || (isObj(n.Y) && xNil) {
						return false
					}
				}
				return true
			case *ast.Ident:
				if objectOf(pass, n) == obj {
					// Bare use: passed, returned or stored somewhere —
					// the close obligation transfers with the value.
					s = respClosed
				}
				return true
			}
			return true
		})
	}

	if as, ok := node.(*ast.AssignStmt); ok {
		defs := responseDefs(pass, as)
		isDef := false
		for _, d := range defs {
			if d == obj {
				isDef = true
			}
		}
		if isDef {
			for _, rhs := range as.Rhs {
				visitExpr(rhs)
			}
			for _, lhs := range as.Lhs {
				if !isObj(lhs) {
					visitExpr(lhs)
				}
			}
			if s == respUsed {
				*reassigned = true
			}
			return respOpen
		}
	}
	visitExpr(node)
	return s
}
