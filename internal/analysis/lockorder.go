package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// LockOrder is the lock analysis. One lockset dataflow runs over each
// function's CFG — and over each function literal's, a separate flow
// unit — and serves two rule families. Along each path of one function
// it reports
//
//   - a guarded-field access on a path where the annotated mutex is not
//     held (released too early, or never acquired on that branch) — in
//     functions that do lock the mutex somewhere, so the purely
//     function-granular "never locks at all" case stays guardedby's;
//   - a lock still held on a return path (the classic missed unlock on
//     an early error return);
//   - a second Lock/RLock of a mutex already held on the path
//     (self-deadlock);
//   - copying a value whose type contains a sync.Mutex/RWMutex.
//
// Propagated through the call graph, the same dataflow checks what
// happens *between* functions, which a per-function pass cannot see:
//
//   - A lock-acquisition-order graph: an edge A → B whenever some path
//     acquires B (directly or via a static call) while A is held. Any
//     cycle in the graph is a potential ABBA deadlock and is reported
//     once with every witness acquisition path.
//   - Blocking operations under a mutex: channel sends and receives
//     (including semaphore/pool claims and selects without a default),
//     ranging over a channel, sync.WaitGroup/Cond Wait, and net/http
//     client round-trips, performed — or reachable through a static
//     call — while a lock is held. Holding a mutex across an unbounded
//     wait starves every other user of that lock.
//   - Interprocedural self-deadlock: calling a function that reacquires
//     a lock the caller already holds.
//
// Along a path a lock is identified by its receiver chain ("s.dictMu",
// "m.mu"), the same syntactic identity guardedby uses; aliasing through
// assignment is invisible, which under-reports but never invents a
// finding about code that follows the repo's direct-receiver locking
// idiom. Across functions it is identified by the mutex's declared
// field/variable object (*types.Var), shared across packages by the
// module loader's single FileSet — all instances of Server.dictMu are
// conflated, which is the useful granularity for ordering. Calls
// through closures, function values and interfaces contribute no edges
// (the same closure-opaque under-approximation the call graph makes
// everywhere else), and time.Sleep is deliberately not a blocking op:
// it is bounded by construction. Paths the analysis cannot see can only
// make the check quieter, never invent a finding.
var LockOrder = &Check{
	Name: "lockorder",
	Doc:  "lockset dataflow: no guarded access after Unlock, lock held at return, double-lock or mutex copy; no lock-order cycles (ABBA), blocking or reacquisition while holding a mutex",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	pass.reportAll(pass.Module.locks[pass.Package])
	for _, f := range pass.Files {
		checkMutexCopies(pass, f)
	}
}

// lockMode distinguishes write locks from read locks.
type lockMode uint8

const (
	lockWrite lockMode = iota
	lockRead
)

const (
	evAcquire = iota
	evRelease
	evAccess // a guarded-field access
	evBlock  // a blocking operation
	evCall   // a static call into a function declared in the module
)

// lockEvent is one lock-relevant operation inside a CFG node.
type lockEvent struct {
	kind int
	// chain is the receiver chain of an acquired or released mutex, or
	// the chain of the mutex a guarded access requires.
	chain string
	// v and name identify an acquired or released mutex across
	// functions; v is nil when the type info cannot resolve the chain.
	v    *types.Var
	name string // "Server.dictMu"
	mode lockMode
	// mu is the annotated mutex field a guarded access requires, and
	// desc the accessed expression — or, for evBlock, what blocks.
	mu, desc string
	callee   *types.Func // evCall
	pos      token.Pos
	// detached marks a lock operation inside a go or defer statement:
	// it does not run on the current path. A deferred release runs at
	// exit (checked at returns); for ordering, ignoring it models the
	// lock as held to the end, which is exactly right.
	detached bool
}

// heldLock is one lock held on a path.
type heldLock struct {
	v    *types.Var
	mode lockMode
}

// lockset is one path's held locks, keyed by receiver chain. Locksets
// are small (nesting two mutexes is already rare), so copying maps per
// block is fine.
type lockset map[string]heldLock

func (ls lockset) clone() lockset {
	c := make(lockset, len(ls))
	for k, v := range ls {
		c[k] = v
	}
	return c
}

// key is the canonical string form used to deduplicate locksets inside
// a dataflow state.
func (ls lockset) key() string {
	chains := make([]string, 0, len(ls))
	for c, h := range ls {
		if h.mode == lockRead {
			c += ":R"
		}
		chains = append(chains, c)
	}
	sort.Strings(chains)
	return strings.Join(chains, "|")
}

// maxLocksets bounds the locksets live at one block — one per
// distinguishable path. A function exceeding it (pathological branching
// on lock operations) is abandoned rather than analysed imprecisely.
const maxLocksets = 64

// acqWitness is where a lock is (transitively) acquired.
type acqWitness struct {
	mode lockMode
	fn   *types.Func // function whose body contains the acquire
	pos  token.Pos
}

// blockWitness is the first (transitively) reachable blocking op.
type blockWitness struct {
	desc string
	fn   *types.Func
	pos  token.Pos
}

// lockSummary is what calling a function may do: the locks it acquires
// and the first blocking op it performs, directly or (for the
// transitive summary) through its direct static callees.
type lockSummary struct {
	acquires map[*types.Var]*acqWitness
	block    *blockWitness
}

// lockEdge is one acquisition-order edge with its witness.
type lockEdge struct {
	from, to         *types.Var
	fromName, toName string
	witness          string // rendered witness acquisition path
	pkg              *Package
	pos              token.Pos // where the finding anchors (the to-acquire or call site)
}

// lockUnit is one flow unit: a declared function's body, or one of the
// function literals inside it.
type lockUnit struct {
	pkg *Package
	// fn is the declared function (for a literal, the enclosing one).
	fn *types.Func
	// name is how per-path findings name the unit: "f", or
	// "f (func literal)".
	name   string
	body   *ast.BlockStmt
	cfg    *CFG
	events [][]lockEvent // per CFG block
}

type lockAnalysis struct {
	graph   *CallGraph
	guarded map[*types.Var]string
	names   map[*types.Var]string
	direct  map[*types.Func]*lockSummary
	memo    map[*types.Func]*lockSummary
	onStack map[*types.Func]bool

	edges    map[[2]*types.Var]*lockEdge
	findings map[*Package][]finding
	seen     map[string]bool
}

// analyzeLocks runs the lock analysis over the module once: it
// extracts every flow unit's events, derives each function's direct
// summary from its body's events, runs the lockset dataflow over every
// unit, and reports the acquisition-order cycles.
func analyzeLocks(pkgs []*Package, graph *CallGraph, guarded map[*types.Var]string) map[*Package][]finding {
	a := &lockAnalysis{
		graph:    graph,
		guarded:  guarded,
		names:    make(map[*types.Var]string),
		direct:   make(map[*types.Func]*lockSummary),
		memo:     make(map[*types.Func]*lockSummary),
		onStack:  make(map[*types.Func]bool),
		edges:    make(map[[2]*types.Var]*lockEdge),
		findings: make(map[*Package][]finding),
		seen:     make(map[string]bool),
	}
	var units []*lockUnit
	for _, pkg := range pkgs {
		forEachFunc(pkg, func(fd *ast.FuncDecl, fn *types.Func) {
			top := a.unit(pkg, fn, fd.Name.Name, fd.Body)
			a.direct[fn] = top.summary()
			units = append(units, top)
			// Function literals are separate flow units: their lock
			// operations are the spawned/deferred frame's business, not
			// the creator's, and their own return paths are checked
			// independently.
			forEachFuncLit(fd.Body, func(lit *ast.FuncLit) {
				units = append(units, a.unit(pkg, fn, fd.Name.Name+" (func literal)", lit.Body))
			})
		})
	}
	for _, u := range units {
		a.flow(u)
	}
	a.reportCycles()
	return a.findings
}

// unit builds one flow unit's CFG and extracts its events.
func (a *lockAnalysis) unit(pkg *Package, fn *types.Func, name string, body *ast.BlockStmt) *lockUnit {
	u := &lockUnit{pkg: pkg, fn: fn, name: name, body: body, cfg: BuildCFG(body)}
	nonBlockingComm, chanRange := bodyScan(pkg, body)
	u.events = make([][]lockEvent, len(u.cfg.Blocks))
	for i, blk := range u.cfg.Blocks {
		for _, n := range blk.Nodes {
			u.events[i] = a.nodeEvents(u.events[i], pkg, n, nonBlockingComm[n], chanRange[n])
		}
	}
	return u
}

// bodyScan precomputes per-body node sets the event extractor needs:
// the comm statements of selects that have a default case (those never
// block), and the range expressions that iterate channels (those do).
// Both are CFG nodes of their own.
func bodyScan(pkg *Package, body *ast.BlockStmt) (nonBlockingComm map[ast.Node]bool, chanRange map[ast.Node]bool) {
	nonBlockingComm = make(map[ast.Node]bool)
	chanRange = make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			hasDefault := false
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
						nonBlockingComm[cc.Comm] = true
					}
				}
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					chanRange[n.X] = true
				}
			}
		}
		return true
	})
	return nonBlockingComm, chanRange
}

// nodeEvents appends one CFG node's events in source order, without
// descending into function literals (separate flow units). Inside a go
// or defer statement, or a comm op raced against a select default,
// nothing blocks the current path, so no blocking or call events are
// extracted there.
func (a *lockAnalysis) nodeEvents(evs []lockEvent, pkg *Package, node ast.Node, nonBlockingComm, chanRange bool) []lockEvent {
	detached := false
	switch node.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		detached = true
	}
	quiet := detached || nonBlockingComm
	if chanRange && !quiet {
		evs = append(evs, lockEvent{kind: evBlock, desc: "range over a channel", pos: node.Pos()})
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if !quiet {
				evs = append(evs, lockEvent{kind: evBlock, desc: "channel send", pos: n.Arrow})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !quiet {
				evs = append(evs, lockEvent{kind: evBlock, desc: "channel receive", pos: n.OpPos})
			}
		case *ast.CallExpr:
			if chain, kind, mode, ok := lockCall(pkg, n); ok {
				v, name := lockVar(pkg, n.Fun.(*ast.SelectorExpr).X)
				if v != nil && kind == evAcquire {
					a.names[v] = name
				}
				evs = append(evs, lockEvent{kind: kind, chain: chain, v: v, name: name, mode: mode, pos: n.Pos(), detached: detached})
				return false // the receiver chain is not a guarded access
			}
			if callee := StaticCallee(pkg.Info, n); callee != nil && !quiet {
				if desc, ok := stdlibBlocking(callee); ok {
					evs = append(evs, lockEvent{kind: evBlock, desc: desc, pos: n.Pos()})
				} else if a.graph.DeclOf(callee) != nil {
					evs = append(evs, lockEvent{kind: evCall, callee: callee, pos: n.Pos()})
				}
			}
		case *ast.SelectorExpr:
			if field := fieldVarOf(pkg.Info, n); field != nil {
				if mu, ok := a.guarded[field]; ok {
					evs = append(evs, lockEvent{
						kind:  evAccess,
						chain: types.ExprString(n.X) + "." + mu,
						mu:    mu,
						desc:  types.ExprString(n),
						pos:   n.Sel.Pos(),
					})
				}
			}
		}
		return true
	})
	return evs
}

// summary derives a function's direct summary from its body's events:
// the first acquisition of each mutex and the first blocking op, in
// source order, outside go/defer statements and function literals.
func (u *lockUnit) summary() *lockSummary {
	s := &lockSummary{acquires: make(map[*types.Var]*acqWitness)}
	for _, evs := range u.events {
		for _, ev := range evs {
			switch {
			case ev.kind == evAcquire && ev.v != nil && !ev.detached:
				if w, ok := s.acquires[ev.v]; !ok || ev.pos < w.pos {
					s.acquires[ev.v] = &acqWitness{mode: ev.mode, fn: u.fn, pos: ev.pos}
				}
			case ev.kind == evBlock:
				if s.block == nil || ev.pos < s.block.pos {
					s.block = &blockWitness{desc: ev.desc, fn: u.fn, pos: ev.pos}
				}
			}
		}
	}
	return s
}

// lockCall recognises <chain>.Lock/RLock/Unlock/RUnlock calls on a
// sync.Mutex or sync.RWMutex, returning the chain, whether the call
// acquires or releases, and the mode.
func lockCall(pkg *Package, call *ast.CallExpr) (chain string, kind int, mode lockMode, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, 0, false
	}
	switch sel.Sel.Name {
	case "Lock":
		kind = evAcquire
	case "RLock":
		kind, mode = evAcquire, lockRead
	case "Unlock", "RUnlock":
		kind = evRelease
	default:
		return "", 0, 0, false
	}
	tv, okT := pkg.Info.Types[sel.X]
	if !okT || !isMutex(tv.Type) {
		return "", 0, 0, false
	}
	return types.ExprString(sel.X), kind, mode, true
}

// lockVar resolves the mutex object behind a Lock/Unlock receiver chain
// ("s.dictMu" → the dictMu field var) plus a display name. Chains the
// type info cannot resolve return nil — the cross-function rules
// under-report rather than conflating unrelated locks.
func lockVar(pkg *Package, expr ast.Expr) (*types.Var, string) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if v := fieldVarOf(pkg.Info, e); v != nil {
			return v, ownerTypeName(pkg, e.X) + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := pkg.Info.ObjectOf(e).(*types.Var); ok {
			return v, v.Name()
		}
	}
	return nil, ""
}

// ownerTypeName names the struct a mutex field belongs to, for display.
func ownerTypeName(pkg *Package, base ast.Expr) string {
	tv, ok := pkg.Info.Types[base]
	if !ok || tv.Type == nil {
		return types.ExprString(base)
	}
	t := tv.Type
	for t != deref(t) {
		t = deref(t)
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return types.ExprString(base)
}

// stdlibBlocking classifies standard-library calls that block
// unboundedly.
func stdlibBlocking(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	recv := ""
	if named, _ := recvNamed(fn); named != nil {
		recv = named.Obj().Name()
	}
	switch fn.Pkg().Path() {
	case "sync":
		if fn.Name() == "Wait" && (recv == "WaitGroup" || recv == "Cond") {
			return "sync." + recv + ".Wait", true
		}
	case "net/http":
		switch fn.Name() {
		case "Do", "Get", "Post", "PostForm", "Head":
			if recv == "Client" || recv == "" {
				return "net/http round-trip", true
			}
		}
	}
	return "", false
}

// shortPos renders a position as "file.go:line" for witness strings.
func shortPos(p token.Position) string {
	return filepath.Base(p.Filename) + ":" + fmt.Sprint(p.Line)
}

// reach memoizes the transitive summary over direct (closure-opaque)
// call edges, with an on-stack guard for recursion.
func (a *lockAnalysis) reach(fn *types.Func) *lockSummary {
	if r, ok := a.memo[fn]; ok {
		return r
	}
	if a.onStack[fn] {
		return &lockSummary{acquires: map[*types.Var]*acqWitness{}}
	}
	a.onStack[fn] = true
	defer delete(a.onStack, fn)
	d := a.direct[fn]
	r := &lockSummary{acquires: make(map[*types.Var]*acqWitness), block: d.block}
	for v, w := range d.acquires {
		r.acquires[v] = w
	}
	for _, callee := range a.graph.DirectCallees(fn) {
		if _, declared := a.direct[callee]; !declared {
			continue // stdlib callees contribute through stdlibBlocking at the call site
		}
		cr := a.reach(callee)
		for v, w := range cr.acquires {
			if _, have := r.acquires[v]; !have {
				r.acquires[v] = w
			}
		}
		if r.block == nil {
			r.block = cr.block
		}
	}
	a.memo[fn] = r
	return r
}

// report records a finding once per line and message.
func (a *lockAnalysis) report(pkg *Package, pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	p := pkg.Fset.Position(pos)
	k := p.Filename + ":" + fmt.Sprint(p.Line) + ":" + msg
	if a.seen[k] {
		return
	}
	a.seen[k] = true
	a.findings[pkg] = append(a.findings[pkg], finding{pos: pos, msg: msg})
}

// byName orders mutex objects deterministically by display name.
func (a *lockAnalysis) byName(x, y *types.Var) int {
	if c := strings.Compare(a.names[x], a.names[y]); c != 0 {
		return c
	}
	return int(x.Pos() - y.Pos())
}

// heldVars returns the distinct resolved mutexes a lockset holds, with
// each one's mode, in deterministic order.
func (a *lockAnalysis) heldVars(ls lockset) ([]*types.Var, map[*types.Var]lockMode) {
	modes := make(map[*types.Var]lockMode, len(ls))
	var vs []*types.Var
	for _, h := range ls {
		if _, dup := modes[h.v]; h.v != nil && !dup {
			modes[h.v] = h.mode
			vs = append(vs, h.v)
		}
	}
	slices.SortFunc(vs, a.byName)
	return vs, modes
}

func (a *lockAnalysis) heldNames(vs []*types.Var) string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = a.names[v]
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func (a *lockAnalysis) addEdge(pkg *Package, from, to *types.Var, witness string, pos token.Pos) {
	key := [2]*types.Var{from, to}
	if _, have := a.edges[key]; have {
		return
	}
	a.edges[key] = &lockEdge{
		from: from, to: to,
		fromName: a.names[from], toName: a.names[to],
		witness: witness,
		pkg:     pkg,
		pos:     pos,
	}
}

// flow runs the lockset dataflow over one unit to a fixpoint, applying
// both rule families to every event on every distinguishable path.
func (a *lockAnalysis) flow(u *lockUnit) {
	pkg, cfg := u.pkg, u.cfg
	fnName := funcDisplay(u.fn)
	hasEvents := false
	everAcquired := make(map[string]bool)
	for _, evs := range u.events {
		hasEvents = hasEvents || len(evs) > 0
		for _, ev := range evs {
			if ev.kind == evAcquire {
				everAcquired[ev.chain] = true
			}
		}
	}
	if !hasEvents {
		return
	}
	pos := func(p token.Pos) string { return shortPos(pkg.Fset.Position(p)) }

	// Deferred releases run at function exit on every path; treating
	// them flow-insensitively (a conditional defer counts) only
	// suppresses findings, never invents them. Deferred function
	// literals that unlock (defer func() { mu.Unlock() }()) count the
	// same way.
	deferred := make(map[string]bool)
	for _, call := range cfg.Defers {
		if chain, _, _, ok := lockCall(pkg, call); ok {
			deferred[chain] = true
		}
		if lit, ok := call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if chain, kind, _, ok := lockCall(pkg, c); ok && kind == evRelease {
						deferred[chain] = true
					}
				}
				return true
			})
		}
	}

	// checkReturn flags locks still held when a path leaves the
	// function, net of deferred releases.
	checkReturn := func(ls lockset, at token.Pos) {
		chains := make([]string, 0, len(ls))
		for chain := range ls {
			if !deferred[chain] {
				chains = append(chains, chain)
			}
		}
		sort.Strings(chains)
		for _, chain := range chains {
			a.report(pkg, at, "%s is still locked when %s returns on this path; unlock before returning or defer the unlock", chain, u.name)
		}
	}

	// apply runs one block's events over one incoming lockset, returning
	// the outgoing lockset.
	apply := func(blkIdx int, in lockset) lockset {
		ls := in.clone()
		for _, ev := range u.events[blkIdx] {
			held, modes := a.heldVars(ls)
			switch ev.kind {
			case evAcquire:
				if ev.detached {
					continue // a deferred Lock (if any) runs at exit; ignore
				}
				if h, ok := ls[ev.chain]; ok && !(h.mode == lockRead && ev.mode == lockRead) {
					a.report(pkg, ev.pos, "%s locked again in %s while already held on this path (self-deadlock)", ev.chain, u.name)
				}
				for _, h := range held {
					if ev.v != nil && h != ev.v {
						a.addEdge(pkg, h, ev.v,
							fmt.Sprintf("%s acquired in %s at %s while %s is held", ev.name, fnName, pos(ev.pos), a.names[h]),
							ev.pos)
					}
				}
				ls[ev.chain] = heldLock{v: ev.v, mode: ev.mode}
			case evRelease:
				if !ev.detached {
					delete(ls, ev.chain)
				}
			case evAccess:
				if _, ok := ls[ev.chain]; !ok && everAcquired[ev.chain] {
					a.report(pkg, ev.pos, "%s accessed in %s on a path where %s is not held (released too early or never locked on this branch); field is annotated \"guarded by %s\"",
						ev.desc, u.name, ev.chain, ev.mu)
				}
			case evBlock:
				if len(held) > 0 {
					a.report(pkg, ev.pos, "blocking %s in %s while holding %s; an unbounded wait under a mutex starves every other user of the lock",
						ev.desc, fnName, a.heldNames(held))
				}
			case evCall:
				r := a.reach(ev.callee)
				if len(held) > 0 && r.block != nil {
					desc := r.block.desc
					if r.block.fn != ev.callee {
						desc += " in " + funcDisplay(r.block.fn)
					}
					a.report(pkg, ev.pos, "call to %s in %s may block (%s) while holding %s",
						funcDisplay(ev.callee), fnName, desc, a.heldNames(held))
				}
				acquired := make([]*types.Var, 0, len(r.acquires))
				for v := range r.acquires {
					acquired = append(acquired, v)
				}
				slices.SortFunc(acquired, a.byName)
				for _, h := range held {
					for _, v := range acquired {
						w := r.acquires[v]
						if v != h {
							a.addEdge(pkg, h, v,
								fmt.Sprintf("%s acquired via call to %s in %s at %s (acquire in %s at %s) while %s is held",
									a.names[v], funcDisplay(ev.callee), fnName, pos(ev.pos), funcDisplay(w.fn), pos(w.pos), a.names[h]),
								ev.pos)
						} else if modes[h] != lockRead || w.mode != lockRead {
							a.report(pkg, ev.pos, "call to %s in %s reacquires %s, already held on this path (self-deadlock; acquire in %s at %s)",
								funcDisplay(ev.callee), fnName, a.names[h], funcDisplay(w.fn), pos(w.pos))
						}
					}
				}
			}
		}
		if ret := cfg.Blocks[blkIdx].Return; ret != nil {
			checkReturn(ls, ret.Pos())
		}
		return ls
	}

	// Worklist iteration to a fixpoint over the lockset-set lattice.
	states := make([]map[string]lockset, len(cfg.Blocks))
	for i := range states {
		states[i] = make(map[string]lockset)
	}
	add := func(idx int, ls lockset) bool {
		k := ls.key()
		if _, ok := states[idx][k]; ok {
			return false
		}
		states[idx][k] = ls
		return true
	}
	ordered := func(idx int) []lockset {
		keys := make([]string, 0, len(states[idx]))
		for k := range states[idx] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]lockset, len(keys))
		for i, k := range keys {
			out[i] = states[idx][k]
		}
		return out
	}
	add(cfg.Entry.Index, lockset{})
	work := []int{cfg.Entry.Index}
	processed := make(map[string]bool) // blkIdx:locksetKey already applied
	for len(work) > 0 {
		idx := work[0]
		work = work[1:]
		for _, in := range ordered(idx) {
			pk := fmt.Sprintf("%d:%s", idx, in.key())
			if processed[pk] {
				continue
			}
			processed[pk] = true
			out := apply(idx, in)
			for _, succ := range cfg.Blocks[idx].Succs {
				if len(states[succ.Index]) >= maxLocksets {
					return // bail: pathological state growth
				}
				if add(succ.Index, out) {
					work = append(work, succ.Index)
				}
			}
		}
	}
	// Explicit returns were checked at their ReturnStmt inside apply;
	// fall-through exits (a path reaching the closing brace) are the
	// blocks edging into Exit without a Return — re-walk their
	// out-states and flag at the brace. report dedups the re-walk.
	for idx, blk := range cfg.Blocks {
		if blk != cfg.Exit && blk.Return == nil && slices.Contains(blk.Succs, cfg.Exit) {
			for _, in := range ordered(idx) {
				checkReturn(apply(idx, in), u.body.Rbrace)
			}
		}
	}
}

// reportCycles finds strongly connected components of the acquisition
// graph and reports each once, listing every witness edge — both (or
// all) acquisition paths of the potential ABBA deadlock.
func (a *lockAnalysis) reportCycles() {
	// Deterministic node and edge order.
	nodeSet := make(map[*types.Var]bool)
	keys := make([][2]*types.Var, 0, len(a.edges))
	for key := range a.edges {
		nodeSet[key[0]] = true
		nodeSet[key[1]] = true
		keys = append(keys, key)
	}
	nodes := make([]*types.Var, 0, len(nodeSet))
	for v := range nodeSet {
		nodes = append(nodes, v)
	}
	slices.SortFunc(nodes, a.byName)
	sort.Slice(keys, func(i, j int) bool {
		x, y := keys[i], keys[j]
		if a.names[x[0]] != a.names[y[0]] {
			return a.names[x[0]] < a.names[y[0]]
		}
		return a.names[x[1]] < a.names[y[1]]
	})
	succs := make(map[*types.Var][]*types.Var)
	for _, key := range keys {
		succs[key[0]] = append(succs[key[0]], key[1])
	}

	// Tarjan's SCC, recursive — lock graphs are tiny.
	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStk := make(map[*types.Var]bool)
	var stack []*types.Var
	var sccs [][]*types.Var
	var strong func(v *types.Var)
	strong = func(v *types.Var) {
		index[v] = len(index)
		low[v] = index[v]
		stack = append(stack, v)
		onStk[v] = true
		for _, w := range succs[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				low[v] = min(low[v], low[w])
			} else if onStk[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			var scc []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStk[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}

	for _, scc := range sccs {
		in := make(map[*types.Var]bool, len(scc))
		names := make([]string, 0, len(scc))
		for _, v := range scc {
			in[v] = true
			names = append(names, a.names[v])
		}
		sort.Strings(names)
		var cycleEdges []*lockEdge
		for key, e := range a.edges {
			if in[key[0]] && in[key[1]] {
				cycleEdges = append(cycleEdges, e)
			}
		}
		sort.Slice(cycleEdges, func(i, j int) bool {
			x, y := cycleEdges[i], cycleEdges[j]
			if x.fromName != y.fromName {
				return x.fromName < y.fromName
			}
			return x.toName < y.toName
		})
		parts := make([]string, 0, len(cycleEdges))
		for _, e := range cycleEdges {
			parts = append(parts, fmt.Sprintf("%s → %s (%s)", e.fromName, e.toName, e.witness))
		}
		a.report(cycleEdges[0].pkg, cycleEdges[0].pos,
			"lock-order cycle between %s: %s — potential ABBA deadlock; acquire these locks in one fixed order everywhere",
			strings.Join(names, " and "), strings.Join(parts, "; "))
	}
}

// checkMutexCopies flags assignments and call arguments that copy a
// value whose type transitively contains a sync.Mutex or sync.RWMutex
// (pointers don't copy their pointee, so *T is always fine). Fresh
// composite literals and address-taking are not copies of a live lock.
func checkMutexCopies(pass *Pass, f *ast.File) {
	flag := func(e ast.Expr, what string) {
		switch ast.Unparen(e).(type) {
		case *ast.CompositeLit, *ast.UnaryExpr, *ast.CallExpr, *ast.FuncLit, *ast.BasicLit:
			return // a fresh value or an address, not a copy of a live lock
		}
		tv, ok := pass.Info.Types[e]
		if !ok || tv.Type == nil {
			return
		}
		if containsMutex(tv.Type, 0) {
			pass.Reportf(e.Pos(), "%s copies %s, whose type %s contains a mutex; copy a pointer to it instead", what, types.ExprString(e), tv.Type)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				flag(rhs, "assignment")
			}
		case *ast.CallExpr:
			if _, _, _, isLock := lockCall(pass.Package, n); isLock {
				return true
			}
			for _, arg := range n.Args {
				flag(arg, "call argument")
			}
		}
		return true
	})
}

// containsMutex reports whether t transitively contains a sync.Mutex or
// sync.RWMutex by value. A *sync.Mutex field is fine: copying the
// pointer shares the lock rather than forking it.
func containsMutex(t types.Type, depth int) bool {
	if depth > 10 {
		return false
	}
	if _, isPtr := t.(*types.Pointer); !isPtr && isMutex(t) {
		return true
	}
	switch t := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsMutex(t.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return containsMutex(t.Elem(), depth+1)
	}
	return false
}
