package analysis_test

import (
	"path/filepath"
	"testing"

	"erminer/internal/analysis"
)

// TestLoadModuleParallelDeterministic pins the contract the parallel
// loader must keep: two loads of the same module agree on the package
// list, the per-package file lists, and — the part goroutine
// scheduling could most plausibly perturb — the full diagnostic
// stream, byte for byte and in the same order. Parsing interleaves
// FileSet offsets across packages, so any check that compared raw
// token.Pos across files of different packages would flake here.
func TestLoadModuleParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source twice")
	}
	root := filepath.Join("..", "..")
	load := func() ([]string, []string) {
		mod, err := analysis.LoadModule(root)
		if err != nil {
			t.Fatalf("LoadModule: %v", err)
		}
		var shape, diags []string
		for _, pkg := range mod.Packages {
			shape = append(shape, pkg.Path)
			for _, f := range pkg.Files {
				shape = append(shape, "  "+pkg.Fset.Position(f.Package).Filename)
			}
			for _, d := range mod.Run(pkg, analysis.AllChecks) {
				diags = append(diags, d.String())
			}
		}
		return shape, diags
	}
	shape1, diags1 := load()
	shape2, diags2 := load()
	if len(shape1) != len(shape2) {
		t.Fatalf("package/file inventory differs between loads: %d vs %d entries", len(shape1), len(shape2))
	}
	for i := range shape1 {
		if shape1[i] != shape2[i] {
			t.Errorf("inventory entry %d differs: %q vs %q", i, shape1[i], shape2[i])
		}
	}
	if len(diags1) != len(diags2) {
		t.Fatalf("diagnostic streams differ in length: %d vs %d", len(diags1), len(diags2))
	}
	for i := range diags1 {
		if diags1[i] != diags2[i] {
			t.Errorf("diagnostic %d differs:\nfirst:  %s\nsecond: %s", i, diags1[i], diags2[i])
		}
	}
}
