package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package under analysis.
type Package struct {
	// Path is the import path ("erminer/internal/serve"); fixture
	// packages get the synthetic path the test harness assigns.
	Path string
	// Dir is the package directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// pkgSrc is a parsed-but-not-yet-type-checked package.
type pkgSrc struct {
	path    string
	dir     string
	files   []*ast.File
	imports map[string]bool
}

// LoadModule parses and type-checks every non-test package of the Go
// module rooted at root, one after another in dependency order, reads
// the golden manifest at ManifestPath when one exists, and builds the
// Module the checks run over, packages sorted by import path.
// Module-internal imports resolve to the packages loaded here;
// standard-library imports resolve from the compiler export data the
// go tool keeps in its build cache (see exportLookup), so the go
// command must be on PATH — no module dependencies.
// TestLoadModuleParallelDeterministic pins that the output — package
// list, file lists and the full diagnostic stream — is identical load
// to load.
// Directories named testdata or vendor and hidden directories are
// skipped, matching the go tool, so the analyzer's own intentionally
// hazardous fixtures never reach the gate. Test files are excluded:
// the checked invariants are properties of the library and serving
// paths, and tests prove determinism by assertion instead (DESIGN.md
// decision 13).
func LoadModule(root string) (*Module, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}

	srcs := make(map[string]*pkgSrc, len(dirs))
	for _, dir := range dirs {
		src, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if src == nil {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			src.path = modPath
		} else {
			src.path = modPath + "/" + filepath.ToSlash(rel)
		}
		srcs[src.path] = src
	}

	order, err := topoSort(srcs, modPath)
	if err != nil {
		return nil, err
	}
	pkgs, err := typeCheck(fset, root, order)
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })

	manifest, err := loadManifest(filepath.Join(root, filepath.FromSlash(ManifestPath)))
	if errors.Is(err, fs.ErrNotExist) {
		manifest, err = nil, nil
	}
	if err != nil {
		return nil, err
	}
	return newModule(pkgs, manifest), nil
}

// LoadDir parses and type-checks the single package in dir under the
// given synthetic import path and builds its one-package Module, with
// no golden manifest. Imports must resolve within the standard library
// — this is the fixture loader for the analyzer's own tests.
func LoadDir(dir, importPath string) (*Module, error) {
	fset := token.NewFileSet()
	src, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	src.path = importPath
	pkgs, err := typeCheck(fset, dir, []*pkgSrc{src})
	if err != nil {
		return nil, err
	}
	return newModule(pkgs, nil), nil
}

// parseDir parses the non-test Go files of one directory that the build
// compiles for this platform (file-name suffixes and //go:build lines
// decide, as for the go command), returning nil when there are none.
func parseDir(fset *token.FileSet, dir string) (*pkgSrc, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	src := &pkgSrc{dir: dir, imports: make(map[string]bool)}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		src.files = append(src.files, f)
		for _, imp := range f.Imports {
			src.imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(src.files) == 0 {
		return nil, nil
	}
	return src, nil
}

// topoSort orders packages so every module-internal import precedes its
// importer; import cycles are reported rather than looping.
func topoSort(srcs map[string]*pkgSrc, modPath string) ([]*pkgSrc, error) {
	paths := make([]string, 0, len(srcs))
	for p := range srcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(srcs))
	var order []*pkgSrc
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s", path)
		}
		state[path] = visiting
		src := srcs[path]
		deps := make([]string, 0, len(src.imports))
		for imp := range src.imports {
			if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
				deps = append(deps, imp)
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if _, ok := srcs[dep]; !ok {
				return fmt.Errorf("analysis: %s imports %s, which has no Go files", path, dep)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, src)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// typeCheck type-checks the topologically ordered packages one after
// another. Module-internal imports resolve to the packages checked
// before them, every other import to the standard library's export
// data (see exportLookup), with go list run in dir.
func typeCheck(fset *token.FileSet, dir string, order []*pkgSrc) ([]*Package, error) {
	// local holds a nil entry for each package not yet checked, so that
	// the imports missing from it are exactly the standard-library ones.
	local := make(map[string]*types.Package, len(order))
	for _, src := range order {
		local[src.path] = nil
	}
	var std []string
	for _, src := range order {
		for imp := range src.imports {
			if _, ok := local[imp]; !ok {
				std = append(std, imp)
			}
		}
	}
	lookup, err := exportLookup(dir, std)
	if err != nil {
		return nil, err
	}
	stdImp := importer.ForCompiler(fset, "gc", lookup)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := local[path]; p != nil {
			return p, nil
		}
		return stdImp.Import(path)
	})}

	pkgs := make([]*Package, len(order))
	for i, src := range order {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		tpkg, err := conf.Check(src.path, fset, src.files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", src.path, err)
		}
		local[src.path] = tpkg
		pkgs[i] = &Package{
			Path:  src.path,
			Dir:   src.dir,
			Fset:  fset,
			Files: src.files,
			Types: tpkg,
			Info:  info,
		}
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportFiles maps standard-library import paths to the export-data
// files go list reported for them. Every load in the process shares it,
// so a test binary that loads many fixtures asks the go tool about each
// package once; holding mu across go list also keeps concurrent loads
// from resolving the same path twice.
var exportFiles = struct {
	mu    sync.Mutex
	paths map[string]string
}{paths: make(map[string]string)}

// exportLookup returns the gc importer's lookup for the given
// standard-library import paths. The paths not resolved earlier in the
// process are resolved by one
//
//	go list -export -deps -f {{.ImportPath}}={{.Export}} <paths>
//
// run in dir, which compiles any missing export data into the go build
// cache: a warm cache answers in well under a second, a cold one pays
// once for compiling those packages. There is no fallback: a path go
// list cannot resolve is an error that quotes go list's stderr.
func exportLookup(dir string, paths []string) (importer.Lookup, error) {
	exportFiles.mu.Lock()
	defer exportFiles.mu.Unlock()
	var missing []string
	for _, p := range paths {
		// unsafe has no export data; the gc importer provides it.
		if _, ok := exportFiles.paths[p]; !ok && p != "unsafe" {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		slices.Sort(missing)
		args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}, slices.Compact(missing)...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("analysis: go %s: %v: %q", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
		}
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(line, "="); ok && file != "" {
				exportFiles.paths[path] = file
			}
		}
	}
	files := make(map[string]string, len(paths))
	for _, p := range paths {
		file, ok := exportFiles.paths[p]
		if !ok && p != "unsafe" {
			return nil, fmt.Errorf("analysis: go list reported no export data for %s", p)
		}
		files[p] = file
	}
	return func(path string) (io.ReadCloser, error) { return os.Open(files[path]) }, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}
