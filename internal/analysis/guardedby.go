package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// GuardedBy enforces the repo's lock-annotation convention and the
// atomics discipline that rests on it.
//
//   - A struct field whose doc or line comment says "guarded by <mu>"
//     (where <mu> is a sibling sync.Mutex/sync.RWMutex field) may only
//     be accessed inside functions that lock <mu> on the same receiver
//     chain. The rule is function-granular and syntactic about lock
//     acquisition — it proves "this function participates in the
//     locking discipline", not a full lockset analysis (lockorder runs
//     that) — which is exactly the drift code review keeps missing: a
//     new accessor added without any locking at all.
//   - A field of an atomic type (atomic.Int64, atomic.Pointer[T], ...)
//     may only be used through its methods or by address. Copying it as
//     a value reads its word without synchronization.
//   - A plain field passed as &x.f to a sync/atomic function must not
//     be read or written plainly anywhere else in the package — unless
//     the plain access is under the field's declared guard, which is
//     the one sound mixed regime (atomic readers, locked writers). The
//     atomic operands themselves are that regime's readers, so they do
//     not need the lock.
var GuardedBy = &Check{
	Name: "guardedby",
	Doc:  `fields annotated "guarded by <mu>" are only accessed in functions that lock <mu>; sync/atomic fields are never also accessed plainly outside that guard`,
	Run:  runGuardedBy,
}

// GuardedByAnnotation is one scraped "guarded by" field annotation.
// Scraping is purely syntactic so tests can inventory the annotations
// of a single parsed file.
type GuardedByAnnotation struct {
	Struct string
	Field  string
	Mutex  string
	Pos    token.Pos
}

var guardedByRE = regexp.MustCompile(`guarded by (\w+)`)

// GuardedByAnnotations scrapes the "guarded by" annotations of every
// struct type declared in f.
func GuardedByAnnotations(f *ast.File) []GuardedByAnnotation {
	var anns []GuardedByAnnotation
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			text := ""
			if field.Doc != nil {
				text += field.Doc.Text()
			}
			if field.Comment != nil {
				text += field.Comment.Text()
			}
			m := guardedByRE.FindStringSubmatch(text)
			if m == nil {
				continue
			}
			for _, name := range field.Names {
				anns = append(anns, GuardedByAnnotation{
					Struct: ts.Name.Name,
					Field:  name.Name,
					Mutex:  m[1],
					Pos:    name.Pos(),
				})
			}
		}
		return true
	})
	return anns
}

// guards is the module's "guarded by" annotations, resolved once and
// shared by guardedby and lockorder.
type guards struct {
	// fields maps each annotated field object to its mutex field name.
	fields map[*types.Var]string
	// bad holds the annotations that do not resolve, by package.
	bad map[*Package][]finding
}

func resolveGuards(pkgs []*Package) guards {
	g := guards{fields: make(map[*types.Var]string), bad: make(map[*Package][]finding)}
	for _, pkg := range pkgs {
		bad := func(pos token.Pos, format string, args ...any) {
			g.bad[pkg] = append(g.bad[pkg], finding{pos, fmt.Sprintf(format, args...)})
		}
		for _, f := range pkg.Files {
			for _, ann := range GuardedByAnnotations(f) {
				obj := pkg.Types.Scope().Lookup(ann.Struct)
				if obj == nil {
					bad(ann.Pos, "guarded-by annotation on field %s of %s, which is not a package-level type", ann.Field, ann.Struct)
					continue
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					bad(ann.Pos, "guarded-by annotation on %s.%s, but %s is not a struct", ann.Struct, ann.Field, ann.Struct)
					continue
				}
				var fieldVar, muVar *types.Var
				for i := 0; i < st.NumFields(); i++ {
					switch v := st.Field(i); v.Name() {
					case ann.Field:
						fieldVar = v
					case ann.Mutex:
						muVar = v
					}
				}
				switch {
				case fieldVar == nil:
					// Unreachable from scraping, but keeps the resolution honest.
					bad(ann.Pos, "guarded-by annotation names unknown field %s.%s", ann.Struct, ann.Field)
				case muVar == nil:
					bad(ann.Pos, "field %s.%s is annotated \"guarded by %s\", but %s has no field %s",
						ann.Struct, ann.Field, ann.Mutex, ann.Struct, ann.Mutex)
				case !isMutex(muVar.Type()):
					bad(ann.Pos, "field %s.%s is annotated \"guarded by %s\", but %s.%s is %s, not a sync.Mutex or sync.RWMutex",
						ann.Struct, ann.Field, ann.Mutex, ann.Struct, ann.Mutex, muVar.Type())
				default:
					g.fields[fieldVar] = ann.Mutex
				}
			}
		}
	}
	return g
}

func runGuardedBy(pass *Pass) {
	pass.reportAll(pass.Module.guards.bad[pass.Package])
	guarded := pass.Module.guards.fields
	atomicOps, atomicArgs := atomicOperands(pass)

	// The atomics rules report at most once per line.
	type lineKey struct {
		file string
		line int
	}
	reported := make(map[lineKey]bool)
	reportAtomic := func(pos token.Pos, format string, args ...any) {
		p := pass.Fset.Position(pos)
		if k := (lineKey{p.Filename, p.Line}); !reported[k] {
			reported[k] = true
			pass.Reportf(pos, format, args...)
		}
	}

	forEachFunc(pass.Package, func(fd *ast.FuncDecl, _ *types.Func) {
		locks := lockedChains(fd.Body)
		var stack []ast.Node // the enclosing nodes of the one visited
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			parent := stack[len(stack)-2] // a selector is never the walk's root
			fv := fieldVarOf(pass.Info, sel)
			if fv == nil || atomicArgs[sel] {
				return true
			}
			if isAtomicType(fv.Type()) && !atomicUseOK(parent, sel) {
				reportAtomic(sel.Pos(), "atomic field %s is used as a plain value here; use its methods (or take its address) so every access stays atomic", fv.Name())
			}
			mu, isGuarded := guarded[fv]
			switch {
			case isGuarded && locks[types.ExprString(sel.X)+"."+mu]:
			case isGuarded && atomicOps[fv]:
				reportAtomic(sel.Pos(), "field %s is accessed with sync/atomic elsewhere in this package; this plain access is outside its declared guard %s and races with the atomic users", fv.Name(), mu)
			case isGuarded:
				pass.Reportf(sel.Sel.Pos(),
					"%s accessed without locking %s in %s (field is annotated \"guarded by %s\")",
					types.ExprString(sel), types.ExprString(sel.X)+"."+mu, fd.Name.Name, mu)
			case atomicOps[fv]:
				reportAtomic(sel.Pos(), "field %s is accessed with sync/atomic elsewhere in this package; this plain access races with it (guard it or use sync/atomic here too)", fv.Name())
			}
			return true
		})
	})
}

// atomicOperands collects, package-wide, the plain fields that appear
// as &x.f arguments to sync/atomic package functions, and those
// selector sites themselves.
func atomicOperands(pass *Pass) (map[*types.Var]bool, map[*ast.SelectorExpr]bool) {
	fields := make(map[*types.Var]bool)
	sites := make(map[*ast.SelectorExpr]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := StaticCallee(pass.Info, call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := callee.Type().(*types.Signature); !ok || sig.Recv() != nil {
				// Methods on atomic types are the safe API; only the
				// package-level &-taking functions mark a plain field
				// as atomically accessed.
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fv := fieldVarOf(pass.Info, sel); fv != nil {
					fields[fv] = true
					sites[sel] = true
				}
			}
			return true
		})
	}
	return fields, sites
}

// lockedChains collects every "<recv>.<mu>" whose Lock or RLock the
// function body calls (including deferred calls and calls from nested
// function literals).
func lockedChains(body *ast.BlockStmt) map[string]bool {
	locks := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		locks[types.ExprString(sel.X)] = true
		return true
	})
	return locks
}

// atomicUseOK reports whether an atomic-typed field selection is in a
// safe position: the receiver of a method selection (x.f.Load) or the
// operand of & (passing the atomic by pointer).
func atomicUseOK(parent ast.Node, sel *ast.SelectorExpr) bool {
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		return p.X == sel
	case *ast.UnaryExpr:
		return p.Op == token.AND
	}
	return false
}

// isAtomicType reports whether t is one of sync/atomic's typed values
// (Int32..Uint64, Uintptr, Bool, Pointer[T], Value).
func isAtomicType(t types.Type) bool { return isNamed(t, "sync/atomic") }
