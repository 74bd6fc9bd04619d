package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxcancelPkgs are the layers that sit on the request path: the
// serving daemon, the repair engine it calls into, and the cluster
// coordinator that fans requests out over worker daemons.
var ctxcancelPkgs = map[string]bool{
	"serve":   true,
	"repair":  true,
	"cluster": true,
}

// CtxCancel requires exported blocking entry points of the serving and
// repair layers to accept a cancellation hook — a context.Context or a
// done channel — and to actually use it, matching repair.ApplyContext.
// "Blocking" is syntactic: the body performs a channel operation, a
// select, or a Wait call. Without a honored hook, one slow request
// pins a worker past its deadline and the bounded-queue latency story
// of DESIGN.md decision 12 falls over.
var CtxCancel = &Check{
	Name: "ctxcancel",
	Doc:  "exported blocking entry points in serve/repair/cluster take and use a context.Context or done channel",
	Run:  runCtxCancel,
}

func runCtxCancel(pass *Pass) {
	if !ctxcancelPkgs[pass.Types.Name()] {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			kind, pos := blockingOp(pass.Info, fn.Body)
			cancelObjs := cancelParams(pass, fn.Type)
			if kind != "" && len(cancelObjs) == 0 {
				pass.Reportf(pos,
					"exported %s blocks (%s) but takes no context.Context or done channel; cancellation must reach it like repair.ApplyContext",
					fn.Name.Name, kind)
				continue
			}
			for _, obj := range cancelObjs {
				if kind != "" && !usesObject(pass.Info, fn.Body, obj) {
					pass.Reportf(obj.Pos(),
						"exported %s blocks (%s) but never uses its cancellation parameter %s",
						fn.Name.Name, kind, obj.Name())
				}
			}
		}
	}
}

// blockingOp returns the first syntactically blocking operation of the
// body: a channel send/receive, a range over a channel, a select, or a
// Wait call.
func blockingOp(info *types.Info, body *ast.BlockStmt) (kind string, pos token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		if kind != "" {
			return false
		}
		switch e := n.(type) {
		case *ast.SendStmt:
			kind, pos = "channel send", e.Pos()
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				kind, pos = "channel receive", e.Pos()
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(e.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					kind, pos = "range over channel", e.Pos()
				}
			}
		case *ast.SelectStmt:
			kind, pos = "select", e.Pos()
		case *ast.CallExpr:
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				kind, pos = "Wait call", e.Pos()
			}
		}
		return kind == ""
	})
	return kind, pos
}

// cancelParams returns the parameter objects that count as cancellation
// hooks: context.Context values and receive-only channels.
func cancelParams(pass *Pass, ftype *ast.FuncType) []types.Object {
	var objs []types.Object
	if ftype.Params == nil {
		return nil
	}
	for _, field := range ftype.Params.List {
		t := pass.Info.TypeOf(field.Type)
		if t == nil || !isCancelType(t) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if obj := pass.Info.Defs[name]; obj != nil {
				objs = append(objs, obj)
			}
		}
	}
	return objs
}

func isCancelType(t types.Type) bool {
	if ch, ok := t.Underlying().(*types.Chan); ok {
		return ch.Dir() == types.RecvOnly
	}
	return isNamed(t, "context", "Context")
}

func usesObject(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}
