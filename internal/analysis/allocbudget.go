package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// allocbudget proves the zero-allocation property of the columnar
// repair hot path statically, over every reachable path, instead of
// trusting one benchmark run to exercise them all.
//
// A function is placed in the budget with
//
//	//ermvet:hotpath
//
// in its doc comment. The check then walks the conservative call graph
// from every annotated root — direct edges only, see CallGraph.direct —
// and requires each reached function to be free of allocation-inducing
// constructs: make/new, composite literals, append onto anything but an
// existing slice, string↔[]byte conversions, interface boxing at call
// sites, function literals (closure capture), fmt calls, map stores,
// string concatenation, and go statements. A callee that is genuinely
// cold (a cache-miss builder, a fallback engine) is pruned from the
// traversal with
//
//	//ermvet:coldpath <reason>
//
// whose reason is mandatory, like an ignore directive's.
const (
	hotpathDirective  = "//ermvet:hotpath"
	coldpathDirective = "//ermvet:coldpath"
)

// HotpathAnnotation is one //ermvet:hotpath or //ermvet:coldpath
// directive scraped from a function's doc comment.
type HotpathAnnotation struct {
	// Func is the declared name, receiver-qualified for methods:
	// "(*Evaluator).getCover".
	Func string
	// Cold is true for //ermvet:coldpath.
	Cold bool
	// Reason is the coldpath rationale; empty for hotpath.
	Reason string
	Pos    token.Pos
}

// HotpathAnnotations scrapes the hotpath/coldpath directives attached
// to function declarations in f. It is purely syntactic (no type
// information), so inventory tests can pin the annotated set from
// parsed sources alone.
func HotpathAnnotations(f *ast.File) []HotpathAnnotation {
	var anns []HotpathAnnotation
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			if rest, ok := cutDirective(c.Text, hotpathDirective); ok {
				anns = append(anns, HotpathAnnotation{
					Func: declName(fd), Reason: strings.TrimSpace(rest), Pos: c.Pos(),
				})
			} else if rest, ok := cutDirective(c.Text, coldpathDirective); ok {
				anns = append(anns, HotpathAnnotation{
					Func: declName(fd), Cold: true, Reason: strings.TrimSpace(rest), Pos: c.Pos(),
				})
			}
		}
	}
	return anns
}

// cutDirective matches prefix as a whole directive word: the remainder
// must be empty or start with whitespace, so //ermvet:hotpathological
// does not parse as //ermvet:hotpath.
func cutDirective(text, prefix string) (string, bool) {
	rest, ok := strings.CutPrefix(text, prefix)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	return rest, true
}

// declName renders a FuncDecl's name, receiver-qualified for methods.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		return "(*" + types.ExprString(star.X) + ")." + fd.Name.Name
	}
	return types.ExprString(t) + "." + fd.Name.Name
}

// AllocBudget requires //ermvet:hotpath functions — and everything they
// reach through direct static calls — to be free of allocating
// constructs.
var AllocBudget = &Check{
	Name: "allocbudget",
	Doc:  "//ermvet:hotpath functions and their direct static callees stay free of allocating constructs",
	Run:  runAllocBudget,
}

func runAllocBudget(pass *Pass) {
	for _, f := range pass.Files {
		validateHotpathDirectives(pass, f)
	}
	forEachFunc(pass.Package, func(fd *ast.FuncDecl, fn *types.Func) {
		if root, ok := pass.Module.budget[fn]; ok {
			scanAllocs(pass, fd, fn, root)
		}
	})
}

// validateHotpathDirectives reports misuse of the hotpath/coldpath
// directives in one file: a directive outside a function doc comment, a
// hotpath with trailing arguments, a coldpath missing its mandatory
// reason, or a declaration carrying both. Attachment problems are
// reported at the function name so the finding sits on the declaration
// line.
func validateHotpathDirectives(pass *Pass, f *ast.File) {
	attached := make(map[*ast.Comment]*ast.FuncDecl)
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		var hot, cold bool
		for _, c := range fd.Doc.List {
			if rest, ok := cutDirective(c.Text, hotpathDirective); ok {
				attached[c] = fd
				hot = true
				if strings.TrimSpace(rest) != "" {
					pass.Reportf(fd.Name.Pos(), "%s takes no argument; use %s <reason> to prune a callee instead", hotpathDirective, coldpathDirective)
				}
			} else if rest, ok := cutDirective(c.Text, coldpathDirective); ok {
				attached[c] = fd
				cold = true
				if strings.TrimSpace(rest) == "" {
					pass.Reportf(fd.Name.Pos(), "%s is missing its reason: pruning a function from the allocation budget must say why it is cold", coldpathDirective)
				}
			}
		}
		if hot && cold {
			pass.Reportf(fd.Name.Pos(), "%s cannot carry both %s and %s", declName(fd), hotpathDirective, coldpathDirective)
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if attached[c] != nil {
				continue
			}
			_, isHot := cutDirective(c.Text, hotpathDirective)
			_, isCold := cutDirective(c.Text, coldpathDirective)
			if isHot || isCold {
				pass.Reportf(c.Pos(), "hotpath/coldpath directive must be in the doc comment of a function declaration")
			}
		}
	}
}

// hotpathBudget computes the allocation budget once per module: every
// function reached from a //ermvet:hotpath root over direct call edges,
// pruned at //ermvet:coldpath functions, mapped to the root that first
// reaches it (roots in deterministic order) for finding attribution.
func hotpathBudget(g *CallGraph) map[*types.Func]*types.Func {
	var roots []*types.Func
	cold := make(map[*types.Func]bool)
	for _, fn := range g.Decls() {
		fd := g.DeclOf(fn)
		if fd == nil || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			if _, ok := cutDirective(c.Text, hotpathDirective); ok {
				roots = append(roots, fn)
			} else if _, ok := cutDirective(c.Text, coldpathDirective); ok {
				cold[fn] = true
			}
		}
	}
	budget := make(map[*types.Func]*types.Func)
	for _, root := range roots {
		if cold[root] {
			continue // contradictory annotation; validation reports it
		}
		if _, seen := budget[root]; seen {
			continue
		}
		queue := []*types.Func{root}
		budget[root] = root
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			for _, callee := range g.DirectCallees(fn) {
				if cold[callee] {
					continue
				}
				if _, seen := budget[callee]; seen {
					continue
				}
				budget[callee] = root
				queue = append(queue, callee)
			}
		}
	}
	return budget
}

// scanAllocs reports every allocation-inducing construct in fd's body,
// at most one finding per source line (so one suppression directive
// covers the line, and fixture want-comments stay unambiguous).
func scanAllocs(pass *Pass, fd *ast.FuncDecl, fn, root *types.Func) {
	var why string
	if fn == root {
		why = "in //ermvet:hotpath function " + funcDisplay(fn)
	} else {
		why = "in " + funcDisplay(fn) + ", reachable from //ermvet:hotpath root " + funcDisplay(root)
	}
	s := &allocScan{
		pass:      pass,
		why:       why,
		reported:  make(map[int]bool),
		exemptCnv: make(map[*ast.CallExpr]bool),
		onceLits:  make(map[*ast.FuncLit]bool),
	}
	s.prepass(fd.Body)
	s.walk(fd.Body)
}

type allocScan struct {
	pass *Pass
	why  string
	// reported dedups findings to one per line.
	reported map[int]bool
	// exemptCnv holds string(b) conversions used as map-read indices,
	// which the compiler elides without allocating.
	exemptCnv map[*ast.CallExpr]bool
	// onceLits holds function literals passed to sync.Once.Do: they run
	// at most once per cache entry, so their one-time cost is not a
	// steady-state allocation.
	onceLits map[*ast.FuncLit]bool
}

func (s *allocScan) reportf(pos token.Pos, format string, args ...any) {
	line := s.pass.Fset.Position(pos).Line
	if s.reported[line] {
		return
	}
	s.reported[line] = true
	args = append(args, s.why)
	s.pass.Reportf(pos, format+" %s", args...)
}

// prepass collects context the main walk cannot see from a node alone:
// map-read indices (store positions excluded) and sync.Once.Do
// literals.
func (s *allocScan) prepass(body *ast.BlockStmt) {
	stores := make(map[*ast.IndexExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					stores[ix] = true
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				stores[ix] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if stores[n] || !s.isMapIndex(n) {
				return true
			}
			if call, ok := ast.Unparen(n.Index).(*ast.CallExpr); ok && s.isConversion(call) {
				s.exemptCnv[call] = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Do" {
				if callee := StaticCallee(s.pass.Info, n); callee != nil && isSyncOnceDo(callee) {
					for _, arg := range n.Args {
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							s.onceLits[lit] = true
						}
					}
				}
			}
		}
		return true
	})
}

func (s *allocScan) isMapIndex(ix *ast.IndexExpr) bool {
	tv, ok := s.pass.Info.Types[ix.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isConversion reports whether call is a type conversion.
func (s *allocScan) isConversion(call *ast.CallExpr) bool {
	tv, ok := s.pass.Info.Types[call.Fun]
	return ok && tv.IsType()
}

func (s *allocScan) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !s.onceLits[n] {
				s.reportf(n.Pos(), "function literal allocates its closure; hoist it out of the hot path")
			}
			// Either way the literal body is outside the budget: its
			// calls are not direct edges, and a Once-guarded body runs
			// at most once.
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					s.reportf(lit.Pos(), "composite literal allocates")
				}
			}
			return true
		case *ast.CompositeLit:
			// Slice and map literals always allocate their backing. A
			// plain struct or array value literal is a stack value —
			// its escape surfaces as &lit (above) or interface boxing.
			if tv, ok := s.pass.Info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					s.reportf(n.Pos(), "composite literal allocates")
				}
			}
			return true
		case *ast.GoStmt:
			s.reportf(n.Pos(), "go statement allocates a goroutine")
			return true
		case *ast.CallExpr:
			return s.walkCall(n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && s.isStringExpr(n) {
				if tv, ok := s.pass.Info.Types[n]; !ok || tv.Value == nil {
					s.reportf(n.Pos(), "string concatenation allocates")
				}
			}
			return true
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && s.isStringExpr(n.Lhs[0]) {
				s.reportf(n.Pos(), "string concatenation allocates")
			}
			s.checkMapStore(n.Pos(), n.Lhs)
			return true
		case *ast.IncDecStmt:
			s.checkMapStore(n.Pos(), []ast.Expr{n.X})
			return true
		}
		return true
	})
}

func (s *allocScan) isStringExpr(e ast.Expr) bool {
	tv, ok := s.pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkMapStore flags assignments through a map index: a store may grow
// the map's buckets, and with a converted []byte key it also
// materializes the key string.
func (s *allocScan) checkMapStore(pos token.Pos, lhs []ast.Expr) {
	for _, l := range lhs {
		if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok && s.isMapIndex(ix) {
			s.reportf(pos, "map store may grow the map")
		}
	}
}

// walkCall handles the call-shaped constructs: builtins, conversions,
// fmt calls and interface boxing of arguments. Returns whether to
// descend into the call's children.
func (s *allocScan) walkCall(call *ast.CallExpr) bool {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := s.pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				s.reportf(call.Pos(), "make allocates")
			case "new":
				s.reportf(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !reusedBacking(call.Args[0]) {
					s.reportf(call.Pos(), "append onto a non-reused backing allocates")
				}
			}
			return true
		}
	}
	// Conversions.
	if s.isConversion(call) {
		if s.exemptCnv[call] {
			return true
		}
		tv := s.pass.Info.Types[call.Fun]
		if len(call.Args) == 1 && s.isAllocConversion(tv.Type, call.Args[0]) {
			s.reportf(call.Pos(), "string↔[]byte conversion copies its operand")
		}
		return true
	}
	// Calls into fmt always allocate (boxing plus formatting buffers);
	// flag the call itself and skip per-argument boxing noise.
	callee := StaticCallee(s.pass.Info, call)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		s.reportf(call.Pos(), "fmt call allocates")
		return true
	}
	// panic's argument is boxed, but a panicking path has already left
	// the hot path.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	s.checkBoxing(call)
	return true
}

// isAllocConversion reports whether converting arg to target crosses
// the string↔[]byte (or []rune) boundary, which copies. Constant
// operands convert at compile time.
func (s *allocScan) isAllocConversion(target types.Type, arg ast.Expr) bool {
	atv, ok := s.pass.Info.Types[arg]
	if !ok || atv.Type == nil || atv.Value != nil {
		return false
	}
	return (isStringType(target) && isByteOrRuneSlice(atv.Type)) ||
		(isByteOrRuneSlice(target) && isStringType(atv.Type))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// reusedBacking reports whether an append's first argument provably
// appends onto existing storage: a named slice or field (possibly
// resliced), so growth is amortized away once the backing is warm.
func reusedBacking(arg ast.Expr) bool {
	for {
		switch e := ast.Unparen(arg).(type) {
		case *ast.SliceExpr:
			arg = e.X
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
			return true
		default:
			return false
		}
	}
}

// checkBoxing flags arguments boxed into interface parameters. Values
// already interface-shaped, pointer-shaped (pointer, chan, map, func),
// constants and nil store into an interface without allocating.
func (s *allocScan) checkBoxing(call *ast.CallExpr) {
	tv, ok := s.pass.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarded slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		atv, ok := s.pass.Info.Types[arg]
		if !ok || atv.Type == nil || atv.Value != nil || atv.IsNil() || types.IsInterface(atv.Type) || pointerShaped(atv.Type) {
			continue
		}
		s.reportf(arg.Pos(), "argument boxed into interface parameter allocates")
	}
}

func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

func isSyncOnceDo(fn *types.Func) bool {
	if fn.Name() != "Do" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}
