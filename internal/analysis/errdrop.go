package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags calls whose error result is silently discarded: a call
// with an error among its results used as a bare statement (including
// deferred — the classic lost fsync/Close on a checkpoint write path),
// and assignments that blank every result (`_ = f()`). Keeping the drop
// requires an //ermvet:ignore errdrop <reason> directive, so every
// ignored error is a written-down decision.
//
// Deliberately NOT flagged, to keep the gate signal-dense:
//
//   - partial blanking (`n, _ := w.Write(p)`) — the author visibly
//     handled the call and chose per-result;
//   - the fmt print family — stdout/stderr chatter, where checking is
//     ceremony (the paths that must not lose bytes use explicit
//     writers whose errors the other rules still cover);
//   - (*bytes.Buffer) and (*strings.Builder) writes, which are
//     documented to never return an error;
//   - go statements: the goroutine's result is inherently detached
//     (goroleak polices the goroutine itself).
var ErrDrop = &Check{
	Name: "errdrop",
	Doc:  "no silently dropped error results; `_ =` and bare calls need an //ermvet:ignore errdrop <reason>",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDroppedCall(pass, call, "")
				}
			case *ast.DeferStmt:
				checkDroppedCall(pass, n.Call, "deferred ")
			case *ast.AssignStmt:
				if !allBlank(n.Lhs) || len(n.Rhs) != 1 {
					return true
				}
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					checkDroppedCall(pass, call, "blank-assigned ")
				}
			}
			return true
		})
	}
}

func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(lhs) > 0
}

func checkDroppedCall(pass *Pass, call *ast.CallExpr, how string) {
	if !callReturnsError(pass, call) || exemptCallee(pass, call) {
		return
	}
	pass.Reportf(call.Pos(), "%scall to %s drops its error result; handle it or suppress with //ermvet:ignore errdrop <reason>",
		how, types.ExprString(ast.Unparen(call.Fun)))
}

// callReturnsError reports whether the call's results include an error.
func callReturnsError(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return false // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false // builtin or type parameter
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}

// exemptCallee applies the deliberate exclusions: fmt's print family
// and the never-failing in-memory writers.
func exemptCallee(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// fmt.Print/Printf/Println/Fprint/Fprintf/Fprintln.
	if path, name, ok := pkgFuncCall(pass.Info, call); ok {
		return path == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint"))
	}
	// Methods of *bytes.Buffer and *strings.Builder.
	if s := pass.Info.Selections[sel]; s != nil {
		if fn, ok := s.Obj().(*types.Func); ok {
			named, _ := recvNamed(fn)
			return named != nil && (isNamed(named, "bytes", "Buffer") || isNamed(named, "strings", "Builder"))
		}
	}
	return false
}
