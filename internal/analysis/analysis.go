// Package analysis is ermvet, the repository's custom static-analysis
// pass. It machine-checks the determinism and concurrency invariants
// the parallel mining engine (DESIGN.md decision 11) and the serving
// daemon (decision 12) rely on, which code review alone cannot keep
// enforced through heavy refactoring:
//
//   - detrand: determinism-critical packages take randomness as an
//     injected seeded *rand.Rand and time through an injected clock —
//     never the math/rand globals or time.Now.
//   - guardedby: struct fields annotated "guarded by <mu>" are only
//     accessed in functions that lock <mu> on the same receiver, and a
//     field accessed through sync/atomic is never also accessed plainly
//     outside that guard.
//
// Later layers grow the reach: flow-sensitive per-function dataflow
// (goroleak, errdrop), resource lifetimes (bodyclose), and whole-module
// contract gates — lockorder (one lockset dataflow per function,
// propagated through the call graph into a cross-package
// lock-acquisition order), httpcontract (client routes must resolve
// against registered handlers), and wiredrift (wire shapes and metric
// names are pinned by a golden manifest). See each check's doc.
//
// Every check runs over a Module: the loaded packages plus the facts
// that span them — call graph, route table, lock analysis, resolved
// guard annotations and golden manifest — each built once with the
// module, so a check sees the same context whether it runs alone or
// with the others.
//
// A finding the code is genuinely entitled to is silenced in place with
//
//	//ermvet:ignore <check> <reason>
//
// on the flagged line or the line above; the reason is mandatory, so
// every suppression is a written-down decision. The only other
// directive is //ermvet:wire (see WireDrift); any other //ermvet: verb
// is reported, so a typo cannot silently drop a gate. The pass is built
// on go/ast, go/parser and go/types only, with standard-library imports
// resolved from source (go/importer) — no third-party analyzer
// framework.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding, resolved to a file position. Suppressed
// marks findings silenced by a well-formed //ermvet:ignore directive;
// Run keeps them so the -json CI feed can show the written-down
// decisions alongside the live findings, each with the directive's
// mandatory rationale in Reason.
type Diagnostic struct {
	Check      string
	Pos        token.Position
	Message    string
	Suppressed bool
	Reason     string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Check is one analysis pass.
type Check struct {
	Name string
	// Doc is the one-line summary `ermvet -checks` prints.
	Doc string
	Run func(*Pass)
}

// AllChecks is the full pass list, in reporting-name order. detrand and
// guardedby are syntactic and function-granular; goroleak, errdrop,
// bodyclose and wiredrift are built on the CFG and call graph (cfg.go,
// callgraph.go); httpcontract and lockorder lift the analysis to
// whole-module contracts.
var AllChecks = []*Check{BodyClose, DetRand, ErrDrop, GoroLeak, GuardedBy, HTTPContract, LockOrder, WireDrift}

// Module is the context every check runs in: the loaded packages plus
// the module-wide facts the checks gate against, each computed once
// when the module is built. LoadModule builds it for the CLI and the
// module-wide tests and LoadDir for one fixture package, both through
// newModule, so fixtures exercise the CLI's code path. A test that
// gates against a different manifest or route table copies the value
// and replaces the exported field.
type Module struct {
	Packages []*Package
	// Graph is the module call graph goroleak and lockorder resolve
	// calls through.
	Graph *CallGraph
	// Routes is the registered-route table httpcontract resolves client
	// call sites against.
	Routes *RouteTable
	// Manifest is the golden manifest wiredrift gates against and
	// resolves other packages' wire structs through. When nil, wiredrift
	// runs its structural rules only (marker on a non-struct, missing
	// version constant, unmarked struct at the JSON boundary).
	Manifest *Manifest

	// guards holds the resolved "guarded by" annotations guardedby and
	// lockorder share.
	guards guards
	// locks holds lockorder's findings by package.
	locks map[*Package][]finding
}

// finding is a module-wide fact's finding, reported by the pass over
// the package that owns it.
type finding struct {
	pos token.Pos
	msg string
}

// newModule computes the module-wide facts over pkgs, which must share
// one FileSet.
func newModule(pkgs []*Package, manifest *Manifest) *Module {
	m := &Module{
		Packages: pkgs,
		Graph:    buildCallGraph(pkgs),
		Routes:   collectRoutes(pkgs),
		Manifest: manifest,
		guards:   resolveGuards(pkgs),
	}
	m.locks = analyzeLocks(pkgs, m.Graph, m.guards.fields)
	return m
}

// Pass hands one package to one check.
type Pass struct {
	*Package
	Module *Module
	Check  string
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Check:   p.Check,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// reportAll records module-wide findings owned by the pass's package.
func (p *Pass) reportAll(fs []finding) {
	for _, f := range fs {
		p.Reportf(f.pos, "%s", f.msg)
	}
}

// Run applies the checks to pkg, one of the module's packages, and
// returns every finding sorted by position. Findings silenced by a
// well-formed //ermvet:ignore directive come back with Suppressed and
// Reason set; each malformed directive is an unsuppressable "ermvet"
// finding.
func (m *Module) Run(pkg *Package, checks []*Check) []Diagnostic {
	var diags []Diagnostic
	for _, c := range checks {
		pass := &Pass{
			Package: pkg,
			Module:  m,
			Check:   c.Name,
			report:  func(d Diagnostic) { diags = append(diags, d) },
		}
		c.Run(pass)
	}

	ign, bad := ignoreDirectives(pkg)
	for i, d := range diags {
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			if reason, ok := ign[ignoreKey{d.Pos.Filename, line, d.Check}]; ok {
				diags[i].Suppressed = true
				diags[i].Reason = reason
				break
			}
		}
	}
	diags = append(diags, bad...)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags
}

type ignoreKey struct {
	file  string
	line  int
	check string
}

const (
	directivePrefix = "//ermvet:"
	ignorePrefix    = directivePrefix + "ignore"
)

// ignoreDirectives scans every comment for ermvet directives, mapping
// each well-formed suppression to its reason string. A suppression must
// name a known check and carry a reason, and the only other verb is
// wire; anything else is reported as an "ermvet" diagnostic, so a typo
// can neither silently widen the gate nor leave a wire struct unpinned.
func ignoreDirectives(pkg *Package) (map[ignoreKey]string, []Diagnostic) {
	ign := make(map[ignoreKey]string)
	var bad []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		bad = append(bad, Diagnostic{Check: "ermvet", Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				verb := ""
				if len(fields) > 0 {
					verb, fields = fields[0], fields[1:]
				}
				switch {
				case directivePrefix+verb == wireMarker:
				case directivePrefix+verb != ignorePrefix:
					report(pos, "unknown directive %q: the only ermvet directives are %s and %s", directivePrefix+verb, ignorePrefix, wireMarker)
				case len(fields) == 0 || !slices.ContainsFunc(AllChecks, func(k *Check) bool { return k.Name == fields[0] }):
					report(pos, "malformed ignore directive: want %q with a known check name", ignorePrefix+" <check> <reason>")
				case len(fields) < 2:
					report(pos, "ignore directive for %q is missing its reason: every suppression must say why", fields[0])
				default:
					ign[ignoreKey{pos.Filename, pos.Line, fields[0]}] = strings.Join(fields[1:], " ")
				}
			}
		}
	}
	return ign, bad
}

// forEachFunc visits every function declaration with a body in pkg,
// with its object.
func forEachFunc(pkg *Package, visit func(fd *ast.FuncDecl, fn *types.Func)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				visit(fd, fn)
			}
		}
	}
}

// forEachFuncLit visits every function literal under body, including
// literals nested in other literals.
func forEachFuncLit(body *ast.BlockStmt, visit func(*ast.FuncLit)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			visit(lit)
		}
		return true
	})
}

// isNamed reports whether t is a named type declared in package path,
// with one of the given names (any name, when none are given).
func isNamed(t types.Type, path string, names ...string) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != path {
		return false
	}
	return len(names) == 0 || slices.Contains(names, named.Obj().Name())
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func isMutex(t types.Type) bool { return isNamed(deref(t), "sync", "Mutex", "RWMutex") }

// fieldVarOf resolves sel to the struct field it selects, or nil when
// sel is not a field selection.
func fieldVarOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// recvNamed returns the named type of fn's receiver and whether the
// receiver is a pointer, or nil for functions and unnamed receivers.
func recvNamed(fn *types.Func) (*types.Named, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	_, ptr := sig.Recv().Type().(*types.Pointer)
	named, _ := deref(sig.Recv().Type()).(*types.Named)
	return named, ptr
}

// funcDisplay renders fn compactly, receiver-qualified without the
// package path: "(*Server).handleRepair".
func funcDisplay(fn *types.Func) string {
	named, ptr := recvNamed(fn)
	switch {
	case named == nil:
		return fn.Name()
	case ptr:
		return "(*" + named.Obj().Name() + ")." + fn.Name()
	}
	return "(" + named.Obj().Name() + ")." + fn.Name()
}
