package analysis

import (
	"go/ast"
	"go/types"
)

// goroleakPkgs are the packages whose goroutines must be joinable or
// cancellable: the serving daemon (leaked workers shrink the pool until
// the daemon silently stops serving), the cluster coordinator (its
// fan-out goroutines and health checker), the miners' parallel engines,
// and rlminer's training loop. A goroutine counts as joined when its
// body — or any function it reaches through the static call graph —
// touches a sync.WaitGroup.Done, sends on / closes / receives from a
// channel, ranges over a channel, or selects; any of those gives the
// spawner a handle to observe or stop it.
var goroleakPkgs = map[string]bool{
	"serve":    true,
	"cluster":  true,
	"rlminer":  true,
	"enuminer": true,
	"measure":  true,
}

// GoroLeak requires every go statement in the serving and mining
// packages to be observable: joined by a WaitGroup or communicating on
// a channel (send, close, receive, range or select) somewhere in its
// reachable body.
var GoroLeak = &Check{
	Name: "goroleak",
	Doc:  "go statements in serve/cluster/rlminer/enuminer/measure must be joined (WaitGroup) or signal a channel",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	if !goroleakPkgs[pass.Types.Name()] {
		return
	}
	graph := pass.Module.Graph
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroutineJoinable(pass, graph, gs.Call) {
				pass.Reportf(gs.Pos(),
					"goroutine started here has no join or cancellation signal (no WaitGroup.Done, channel operation or select reachable in its body): a caller can neither wait for it nor stop it")
			}
			return true
		})
	}
}

// goroutineJoinable reports whether the spawned call's body — the
// function literal or the statically resolved callee, plus everything
// reachable from it — contains a join signal.
func goroutineJoinable(pass *Pass, graph *CallGraph, call *ast.CallExpr) bool {
	var bodies []*ast.BlockStmt
	collect := func(fn *types.Func) {
		for _, r := range graph.Reachable(fn) {
			if d := graph.DeclOf(r); d != nil && d.Body != nil {
				bodies = append(bodies, d.Body)
			}
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		bodies = append(bodies, fun.Body)
		// Static calls inside the literal extend the search.
		ast.Inspect(fun.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if callee := StaticCallee(pass.Info, c); callee != nil {
					collect(callee)
				}
			}
			return true
		})
	default:
		callee := StaticCallee(pass.Info, call)
		if callee == nil {
			// Dynamic spawn: nothing to inspect. Stay quiet rather than
			// flagging code the analysis cannot see into.
			return true
		}
		collect(callee)
	}
	for _, body := range bodies {
		if bodyHasJoinSignal(pass, body) {
			return true
		}
	}
	return false
}

// bodyHasJoinSignal scans one function body (including its nested
// literals — a deferred func(){ wg.Done() }() counts) for a join or
// cancellation signal.
func bodyHasJoinSignal(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			// A receive: the goroutine blocks on (or polls) a channel
			// someone else controls — ctx.Done(), a done chan, a queue.
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" || fun.Sel.Name == "Wait" {
					if tv, ok := pass.Info.Types[fun.X]; ok && isNamed(deref(tv.Type), "sync", "WaitGroup") {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}
