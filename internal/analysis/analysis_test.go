package analysis_test

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"erminer/internal/analysis"
)

// wantRE matches a fixture expectation: a comment containing
// `// want `<regexp>“ on the line where a diagnostic must appear.
var wantRE = regexp.MustCompile("// want `([^`]*)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var (
	moduleOnce sync.Once
	module     *analysis.Module
	moduleErr  error
)

// loadedModule returns the whole module, loaded once per test binary
// and shared read-only: type-checking it from source is the expensive
// step of every module-wide test. A test that gates against a different
// manifest or route table copies the value and replaces that field.
func loadedModule(t *testing.T) *analysis.Module {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	moduleOnce.Do(func() { module, moduleErr = analysis.LoadModule(filepath.Join("..", "..")) })
	if moduleErr != nil {
		t.Fatalf("LoadModule: %v", moduleErr)
	}
	return module
}

// modulePackage returns the loaded package with the given import path.
func modulePackage(t *testing.T, mod *analysis.Module, path string) *analysis.Package {
	t.Helper()
	for _, pkg := range mod.Packages {
		if pkg.Path == path {
			return pkg
		}
	}
	t.Fatalf("module has no %s package", path)
	return nil
}

// loadFixture builds the one-package module of a fixture directory
// under testdata/src.
func loadFixture(t *testing.T, dir string) *analysis.Module {
	t.Helper()
	path := filepath.Join("testdata", "src", filepath.FromSlash(dir))
	mod, err := analysis.LoadDir(path, "fixture/"+dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", path, err)
	}
	return mod
}

// live runs the checks over one package and drops the findings a
// well-formed //ermvet:ignore directive silenced.
func live(mod *analysis.Module, pkg *analysis.Package, checks ...*analysis.Check) []analysis.Diagnostic {
	var kept []analysis.Diagnostic
	for _, d := range mod.Run(pkg, checks) {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// TestChecks runs each check against its fixture packages and compares
// the diagnostics against the fixtures' want-expectations in both
// directions: a diagnostic with no matching want fails, and a want with
// no matching diagnostic fails. Every check has at least one firing and
// one non-firing fixture, and every fixture carries a suppressed case,
// so the //ermvet:ignore path is exercised throughout. A fixture
// directory is named after the rule family it exercises: lockflow's
// per-path rules now belong to lockorder, atomicmix's to guardedby and
// metricdrift's to wiredrift, which also owns the JSON-boundary rule
// (wiredrift/cluster).
func TestChecks(t *testing.T) {
	cases := []struct {
		dir      string
		check    *analysis.Check
		manifest *analysis.Manifest
	}{
		{dir: "detrand/measure", check: analysis.DetRand},
		{dir: "detrand/other", check: analysis.DetRand},
		{dir: "guardedby/a", check: analysis.GuardedBy},
		{dir: "bodyclose/cluster", check: analysis.BodyClose},
		{dir: "bodyclose/other", check: analysis.BodyClose},
		{dir: "atomicmix/a", check: analysis.GuardedBy},
		{dir: "lockflow/a", check: analysis.LockOrder},
		{dir: "goroleak/serve", check: analysis.GoroLeak},
		{dir: "goroleak/other", check: analysis.GoroLeak},
		{dir: "errdrop/a", check: analysis.ErrDrop},
		{dir: "wiredrift/a", check: analysis.WireDrift},
		{dir: "wiredrift/cluster", check: analysis.WireDrift},
		{dir: "lockorder/a", check: analysis.LockOrder},
		{dir: "httpcontract/cluster", check: analysis.HTTPContract},
		{dir: "httpcontract/other", check: analysis.HTTPContract},
		{dir: "metricdrift/serve", check: analysis.WireDrift, manifest: &analysis.Manifest{
			Metrics: map[string]string{
				"erminerd_known_total":   "serve",
				"erminerd_dropped_total": "serve",
			},
		}},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.dir, "/", "_"), func(t *testing.T) {
			mod := loadFixture(t, tc.dir)
			mod.Manifest = tc.manifest
			pkg := mod.Packages[0]
			wants := parseWants(t, pkg)
			for _, d := range live(mod, pkg, tc.check) {
				if !claim(wants, d.Pos.Filename, d.Pos.Line, d.Message) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.re)
				}
			}
		})
	}
}

// parseWants scrapes the want-expectations from the fixture's comments.
func parseWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
				}
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// claim marks the first unhit expectation matching the diagnostic.
func claim(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.hit && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.hit = true
			return true
		}
	}
	return false
}

// TestMalformedIgnores pins the exact diagnostics for broken
// directives: an ignore without a reason, an ignore naming an unknown
// check, and any //ermvet: verb other than ignore and wire (here a typo
// of each) all surface as unsuppressable "ermvet" findings, and neither
// the reasonless nor the misspelled ignore silences the errdrop finding
// under it.
func TestMalformedIgnores(t *testing.T) {
	mod := loadFixture(t, "ignore/bad")
	file := filepath.Join("testdata", "src", "ignore", "bad", "bad.go")
	want := []string{
		file + `:9:2: [ermvet] ignore directive for "errdrop" is missing its reason: every suppression must say why`,
		file + ":10:2: [errdrop] call to os.Remove drops its error result; handle it or suppress with //ermvet:ignore errdrop <reason>",
		file + `:13:1: [ermvet] malformed ignore directive: want "//ermvet:ignore <check> <reason>" with a known check name`,
		file + `:20:1: [ermvet] unknown directive "//ermvet:wier": the only ermvet directives are //ermvet:ignore and //ermvet:wire`,
		file + `:24:2: [ermvet] unknown directive "//ermvet:ignroe": the only ermvet directives are //ermvet:ignore and //ermvet:wire`,
		file + ":25:2: [errdrop] call to os.Remove drops its error result; handle it or suppress with //ermvet:ignore errdrop <reason>",
	}
	var got []string
	for _, d := range live(mod, mod.Packages[0], analysis.AllChecks...) {
		got = append(got, d.String())
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\ngot:  %s\nwant: %s",
			len(got), len(want), strings.Join(got, "\n      "), strings.Join(want, "\n      "))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

// TestModuleClean re-runs the full pass over the module from inside the
// test suite, so `go test ./...` — not only scripts/check.sh — fails
// the moment a determinism or locking invariant regresses (for example,
// reading a guarded field without holding its mutex). It runs over the
// same Module the CLI builds: golden manifest, cross-package call
// graph, route table and lock analysis included.
func TestModuleClean(t *testing.T) {
	mod := loadedModule(t)
	for _, pkg := range mod.Packages {
		for _, d := range live(mod, pkg, analysis.AllChecks...) {
			t.Errorf("%s", d)
		}
	}
}

// TestEachCheckAloneClean runs every check on its own over the module.
// The module-wide context is built with the module, not per selected
// check, so a check must be as clean alone as in the full set — the
// golden manifest was once loaded only when wiredrift was selected,
// and the JSON-boundary rule (then httpcontract's) alone misreported
// every serve payload struct the cluster handlers decode.
func TestEachCheckAloneClean(t *testing.T) {
	mod := loadedModule(t)
	for _, c := range analysis.AllChecks {
		for _, pkg := range mod.Packages {
			for _, d := range live(mod, pkg, c) {
				t.Errorf("-checks %s: %s", c.Name, d)
			}
		}
	}
}

// TestCheckInventory pins the pass list: eight checks, in
// reporting-name order. Dropping a check from AllChecks would silently
// shrink every gate built on it — the CLI, check.sh, TestModuleClean —
// so the count and the names are fixed here.
func TestCheckInventory(t *testing.T) {
	want := []string{
		"bodyclose", "detrand", "errdrop", "goroleak", "guardedby",
		"httpcontract", "lockorder", "wiredrift",
	}
	var got []string
	for _, c := range analysis.AllChecks {
		got = append(got, c.Name)
	}
	if len(got) != len(want) {
		t.Fatalf("AllChecks has %d checks, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AllChecks[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
