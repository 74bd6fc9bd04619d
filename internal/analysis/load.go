package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
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
// module rooted at root, in dependency order, reads the golden manifest
// at ManifestPath when one exists, and builds the Module the checks run
// over, packages sorted by import path. Module-internal imports resolve
// to the packages loaded here; standard-library imports are
// type-checked from GOROOT source via importer.ForCompiler(...,
// "source", ...) — no module dependencies. Parsing runs one goroutine
// per directory and type-checking runs level-parallel over the
// dependency DAG, both bounded by GOMAXPROCS;
// TestLoadModuleParallelDeterministic pins that the output — package
// list, file lists and the full diagnostic stream — is identical run
// to run regardless of scheduling.
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

	parsed, err := parseDirs(fset, dirs)
	if err != nil {
		return nil, err
	}
	srcs := make(map[string]*pkgSrc, len(parsed))
	for i, src := range parsed {
		if src == nil {
			continue
		}
		rel, err := filepath.Rel(root, dirs[i])
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
	pkgs, err := typeCheck(fset, order)
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
	pkgs, err := typeCheck(fset, []*pkgSrc{src})
	if err != nil {
		return nil, err
	}
	return newModule(pkgs, nil), nil
}

// parallelism bounds the loader's worker pools.
func parallelism() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// parseDirs parses the given directories concurrently and returns one
// (possibly nil) *pkgSrc per directory, index-aligned with dirs. The
// shared FileSet is safe for concurrent use, and each directory's
// files are parsed sequentially by one goroutine, so within a package
// the file base offsets stay in filename order and every per-package
// Pos comparison the checks make is deterministic run to run. When
// several directories fail to parse, the error reported is the first
// in dirs order (WalkDir's lexical order), independent of goroutine
// scheduling.
func parseDirs(fset *token.FileSet, dirs []string) ([]*pkgSrc, error) {
	srcs := make([]*pkgSrc, len(dirs))
	errs := make([]error, len(dirs))
	sem := make(chan struct{}, parallelism())
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			srcs[i], errs[i] = parseDir(fset, dir)
		}(i, dir)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return srcs, nil
}

// parseDir parses the non-test Go files of one directory, returning nil
// when there are none.
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

// moduleImporter resolves module-internal imports to the packages
// type-checked in this run and everything else (the standard library)
// through the source importer. The mutex makes it safe for the
// concurrent type-checkers of one level: the source importer is not
// safe for concurrent use, so standard-library resolution serializes
// on mu — its per-package results are cached after the first import,
// and the module packages themselves still check in parallel.
type moduleImporter struct {
	mu    sync.Mutex
	std   types.Importer
	local map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

func (m *moduleImporter) add(path string, pkg *types.Package) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.local[path] = pkg
}

// typeCheck type-checks the topologically ordered packages with level
// scheduling: a package's level is one past its deepest
// module-internal dependency, so the members of one level only import
// packages from earlier levels and are mutually independent — they
// type-check concurrently, with a barrier between levels. Results are
// deterministic: types.Info is per package, the shared importer is
// mutex-guarded, and when a level has several failures the error
// reported is from the lexically smallest failing import path,
// independent of goroutine scheduling.
func typeCheck(fset *token.FileSet, order []*pkgSrc) ([]*Package, error) {
	imp := &moduleImporter{
		std:   importer.ForCompiler(fset, "source", nil),
		local: make(map[string]*types.Package, len(order)),
	}

	index := make(map[string]int, len(order))
	for i, src := range order {
		index[src.path] = i
	}
	level := make([]int, len(order))
	maxLevel := 0
	for i, src := range order {
		for dep := range src.imports {
			// Dependencies precede their importers in order, so level[j]
			// is final by the time it feeds level[i].
			if j, ok := index[dep]; ok && level[j]+1 > level[i] {
				level[i] = level[j] + 1
			}
		}
		if level[i] > maxLevel {
			maxLevel = level[i]
		}
	}

	pkgs := make([]*Package, len(order))
	errs := make([]error, len(order))
	sem := make(chan struct{}, parallelism())
	for l := 0; l <= maxLevel; l++ {
		var wg sync.WaitGroup
		for i, src := range order {
			if level[i] != l {
				continue
			}
			wg.Add(1)
			go func(i int, src *pkgSrc) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				info := &types.Info{
					Types:      make(map[ast.Expr]types.TypeAndValue),
					Defs:       make(map[*ast.Ident]types.Object),
					Uses:       make(map[*ast.Ident]types.Object),
					Selections: make(map[*ast.SelectorExpr]*types.Selection),
					Implicits:  make(map[ast.Node]types.Object),
				}
				conf := types.Config{Importer: imp}
				tpkg, err := conf.Check(src.path, fset, src.files, info)
				if err != nil {
					errs[i] = fmt.Errorf("analysis: type-checking %s: %w", src.path, err)
					return
				}
				imp.add(src.path, tpkg)
				pkgs[i] = &Package{
					Path:  src.path,
					Dir:   src.dir,
					Fset:  fset,
					Files: src.files,
					Types: tpkg,
					Info:  info,
				}
			}(i, src)
		}
		wg.Wait()
		var firstErr error
		firstPath := ""
		for i, err := range errs {
			if err != nil && (firstErr == nil || order[i].path < firstPath) {
				firstErr, firstPath = err, order[i].path
			}
		}
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return pkgs, nil
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
