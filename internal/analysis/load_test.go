package analysis_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"erminer/internal/analysis"
)

// TestLoadModuleParallelDeterministic pins that two loads of the same
// module agree on the package list, the per-package file lists and the
// full diagnostic stream, byte for byte and in the same order. The
// loader is serial, but the checks are not order-free: Module.Run sorts
// findings by position, yet a check that ranges over a map can still
// change a message or which witness (a lockorder cycle path, say) it
// reports, and only a comparison of two whole streams shows that.
func TestLoadModuleParallelDeterministic(t *testing.T) {
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

// TestLoadDirUnknownImport pins the loader's one resolution path: an
// import go list cannot resolve fails the load with an error naming the
// path, instead of falling back to another importer.
func TestLoadDirUnknownImport(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\nimport _ \"nosuch/pkg\"\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := analysis.LoadDir(dir, "fixture/p")
	if err == nil || !strings.Contains(err.Error(), "nosuch/pkg") {
		t.Fatalf("LoadDir: got error %v, want one naming nosuch/pkg", err)
	}
}

// TestLoadDirBuildConstraints pins that the loader type-checks the
// files the build compiles for this platform: a function declared once
// per architecture, by a file-name suffix and by a //go:build line, is
// one declaration, not a redeclaration.
func TestLoadDirBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"k.go":                                   "package p\n\nfunc use() { kernel() }\n",
		"k_" + runtime.GOARCH + ".go":            "package p\n\nfunc kernel() {}\n",
		"k_other.go":                             "//go:build !" + runtime.GOARCH + "\n\npackage p\n\nfunc kernel() {}\n",
		"k_" + otherArch(runtime.GOARCH) + ".go": "package p\n\nfunc kernel() {}\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := analysis.LoadDir(dir, "fixture/p")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if n := len(mod.Packages[0].Files); n != 2 {
		t.Errorf("loaded %d files, want 2 (k.go and k_%s.go)", n, runtime.GOARCH)
	}
}

// otherArch returns an architecture other than arch.
func otherArch(arch string) string {
	if arch == "arm64" {
		return "amd64"
	}
	return "arm64"
}
