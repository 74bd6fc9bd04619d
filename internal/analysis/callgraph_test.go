package analysis_test

import (
	"go/types"
	"testing"

	"erminer/internal/analysis"
)

// loadCallgraphFixture loads the handcrafted callgraph fixture package
// and resolves the named functions.
func loadCallgraphFixture(t *testing.T) (*analysis.CallGraph, map[string]*types.Func) {
	t.Helper()
	mod := loadFixture(t, "callgraph/a")
	pkg, graph := mod.Packages[0], mod.Graph

	fns := make(map[string]*types.Func)
	for _, name := range []string{"top", "mid", "iface", "island"} {
		fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
		if !ok {
			t.Fatalf("fixture has no function %q", name)
		}
		fns[name] = fn
	}
	named := pkg.Types.Scope().Lookup("doer").Type().(*types.Named)
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == "leaf" {
			fns["doer.leaf"] = m
		}
	}
	if fns["doer.leaf"] == nil {
		t.Fatal("fixture has no method doer.leaf")
	}
	return graph, fns
}

func TestCallGraphEdges(t *testing.T) {
	graph, fns := loadCallgraphFixture(t)

	if got := graph.Callees(fns["top"]); len(got) != 1 || got[0] != fns["mid"] {
		t.Errorf("Callees(top) = %v, want [mid]", got)
	}
	if got := graph.Callees(fns["mid"]); len(got) != 1 || got[0] != fns["doer.leaf"] {
		t.Errorf("Callees(mid) = %v, want [doer.leaf]", got)
	}
	// Interface dispatch must contribute no edge: the conservative graph
	// under-approximates rather than guessing implementations.
	if got := graph.Callees(fns["iface"]); len(got) != 0 {
		t.Errorf("Callees(iface) = %v, want none (interface dispatch is dynamic)", got)
	}
}

func TestCallGraphReachable(t *testing.T) {
	graph, fns := loadCallgraphFixture(t)

	want := []*types.Func{fns["top"], fns["mid"], fns["doer.leaf"]}
	got := graph.Reachable(fns["top"])
	if len(got) != len(want) {
		t.Fatalf("Reachable(top) has %d functions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Reachable(top)[%d] = %s, want %s", i, got[i].FullName(), want[i].FullName())
		}
	}
	if got := graph.Reachable(fns["island"]); len(got) != 1 || got[0] != fns["island"] {
		t.Errorf("Reachable(island) = %v, want just island", got)
	}
}

func TestCallGraphDecls(t *testing.T) {
	graph, fns := loadCallgraphFixture(t)
	for _, name := range []string{"top", "mid", "doer.leaf"} {
		if d := graph.DeclOf(fns[name]); d == nil || d.Body == nil {
			t.Errorf("DeclOf(%s) should return the fixture declaration with a body", name)
		}
	}
}
