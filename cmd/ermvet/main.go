// ermvet is the repository's custom static-analysis gate: it
// machine-checks the determinism and concurrency invariants the
// parallel mining engine and the serving daemon rely on (see package
// erminer/internal/analysis for the check list and the
// //ermvet:ignore suppression convention).
//
// Usage:
//
//	go run ./cmd/ermvet ./...
//	go run ./cmd/ermvet ./internal/serve ./internal/measure
//	go run ./cmd/ermvet -checks detrand,lockorder ./...
//	go run ./cmd/ermvet -checks all -json ./...
//	go run ./cmd/ermvet -update
//	go run ./cmd/ermvet -list
//
// Patterns are module-root-relative directories; a trailing /... matches
// the subtree. -update regenerates the golden manifest (wire shapes and
// metric names) and refuses a wire-shape change whose version constant
// was not bumped. Exit status is 1 when any finding survives
// suppression, 2 when the module itself fails to load or type-check, or
// has no golden manifest (or a flag is invalid).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"erminer/internal/analysis"
)

func main() {
	listChecks := flag.Bool("list", false, "list the checks and exit")
	checkNames := flag.String("checks", "", "comma-separated subset of checks to run, or \"all\" (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as newline-delimited JSON, including suppressed ones")
	update := flag.Bool("update", false, "regenerate the golden manifest (wire shapes and metric names) and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ermvet [-list] [-checks name,...] [-json] [-update] [pattern ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listChecks {
		for _, c := range analysis.AllChecks {
			fmt.Printf("%-12s %s\n", c.Name, c.Doc)
		}
		return
	}
	checks, err := selectChecks(*checkNames)
	if err != nil {
		fail(err)
	}

	root, err := moduleRoot()
	if err != nil {
		fail(err)
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		fail(err)
	}

	if *update {
		m, err := analysis.UpdateManifest(mod.Manifest, mod.Packages)
		if err != nil {
			fail(err)
		}
		if err := m.Write(filepath.Join(root, filepath.FromSlash(analysis.ManifestPath))); err != nil {
			fail(err)
		}
		fmt.Printf("ermvet: wrote %s\n", analysis.ManifestPath)
		return
	}
	// Gating against a missing golden manifest would silently pass.
	if mod.Manifest == nil {
		fail(fmt.Errorf("no golden manifest at %s (generate it with ermvet -update)", analysis.ManifestPath))
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings := 0
	for _, pkg := range mod.Packages {
		rel, err := filepath.Rel(root, pkg.Dir)
		if err != nil {
			fail(err)
		}
		if !matchAny(patterns, filepath.ToSlash(rel)) {
			continue
		}
		diags := mod.Run(pkg, checks)
		for i := range diags {
			diags[i].Pos.Filename = relTo(root, diags[i].Pos.Filename)
		}
		if *jsonOut {
			if err := analysis.WriteJSON(os.Stdout, diags); err != nil {
				fail(err)
			}
		}
		for _, d := range diags {
			if d.Suppressed {
				continue
			}
			if !*jsonOut {
				fmt.Println(d)
			}
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "ermvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ermvet:", err)
	os.Exit(2)
}

// selectChecks resolves the -checks flag; an empty flag or "all"
// selects every check. An unknown name is an error that lists the
// valid set, so a typo can never silently shrink the gate.
func selectChecks(names string) ([]*analysis.Check, error) {
	if names == "" || names == "all" {
		return analysis.AllChecks, nil
	}
	var checks []*analysis.Check
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, c := range analysis.AllChecks {
			if c.Name == name {
				checks = append(checks, c)
				found = true
				break
			}
		}
		if !found {
			valid := make([]string, 0, len(analysis.AllChecks))
			for _, c := range analysis.AllChecks {
				valid = append(valid, c.Name)
			}
			return nil, fmt.Errorf("unknown check %q; valid checks: all, %s", name, strings.Join(valid, ", "))
		}
	}
	return checks, nil
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// matchAny matches a module-root-relative package directory ("." for
// the root package) against the given patterns.
func matchAny(patterns []string, rel string) bool {
	for _, p := range patterns {
		p = strings.TrimPrefix(filepath.ToSlash(p), "./")
		switch {
		case p == "..." || p == ".":
			return true
		case strings.HasSuffix(p, "/..."):
			base := strings.TrimSuffix(p, "/...")
			if rel == base || strings.HasPrefix(rel, base+"/") {
				return true
			}
		case rel == p:
			return true
		}
	}
	return false
}

func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
