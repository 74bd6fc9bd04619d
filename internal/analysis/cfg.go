package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the flow-sensitive substrate of ermvet v2: a lightweight
// intra-procedural control-flow graph over go/ast. It is deliberately
// small — basic blocks of statements with successor edges, a synthetic
// exit block, and a side list of deferred calls — because the checks
// built on it (lockorder's lockset dataflow, primarily) need path
// structure, not SSA. Nested function literals are opaque: their bodies
// are separate flow units, analysed independently by the checks.
//
// Precision notes, all in the false-negative direction (the gate never
// cries wolf because of them):
//
//   - goto transfers to the exit block, abandoning the path;
//   - labeled break/continue resolve through the label stack like the
//     go spec says, falling back to the exit block if the label is
//     unknown (malformed code the type checker would reject anyway);
//   - panic and the noreturn os.Exit/log.Fatal family end the path
//     without reaching the exit block, so "lock held at return" is
//     never reported on a path that dies by panicking.

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters at the function's first
	// statement.
	Entry *CFGBlock
	// Exit is the synthetic block every return and the final
	// fall-through edge into. It holds no nodes.
	Exit *CFGBlock
	// Blocks lists every block, Entry first and Exit last.
	Blocks []*CFGBlock
	// Defers collects the argument calls of every defer statement in
	// the body, in source order, regardless of the path they sit on.
	// Flow-sensitive consumers treat them conservatively: a deferred
	// call runs at function exit whether or not its defer statement was
	// provably reached.
	Defers []*ast.CallExpr
}

// CFGBlock is one basic block: a maximal run of straight-line
// statements.
type CFGBlock struct {
	Index int
	// Nodes holds the block's statements (and, for control headers, the
	// init/condition statements and expressions) in execution order.
	Nodes []ast.Node
	Succs []*CFGBlock
	// Return is the return statement terminating the block, when the
	// block ends in one.
	Return *ast.ReturnStmt
}

type cfgBuilder struct {
	cfg *CFG
	// loops is the stack of enclosing breakable/continuable constructs.
	loops []loopFrame
}

type loopFrame struct {
	label    string
	brk      *CFGBlock // break target
	cont     *CFGBlock // continue target; nil for switch/select frames
	isSwitch bool
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = &CFGBlock{}
	cur := b.stmtList(body.List, b.cfg.Entry)
	if cur != nil {
		// The body can fall off the closing brace: an implicit return.
		b.edge(cur, b.cfg.Exit)
	}
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *CFGBlock) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// stmtList threads the statements through cur, returning the block
// control continues in, or nil when every path diverged (return, break,
// panic).
func (b *cfgBuilder) stmtList(stmts []ast.Stmt, cur *CFGBlock) *CFGBlock {
	for _, s := range stmts {
		if cur == nil {
			// Unreachable code after a terminator; ignore it (the
			// compiler polices genuine misuse).
			return nil
		}
		cur = b.stmt(s, cur, "")
	}
	return cur
}

// stmt adds one statement to the graph. label is the pending label when
// the statement was wrapped in a LabeledStmt.
func (b *cfgBuilder) stmt(s ast.Stmt, cur *CFGBlock, label string) *CFGBlock {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		return b.stmt(s.Stmt, cur, s.Label.Name)

	case *ast.BlockStmt:
		return b.stmtList(s.List, cur)

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		cur.Return = s
		b.edge(cur, b.cfg.Exit)
		return nil

	case *ast.BranchStmt:
		return b.branch(s, cur)

	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s.Call)
		cur.Nodes = append(cur.Nodes, s)
		return cur

	case *ast.IfStmt:
		return b.ifStmt(s, cur)

	case *ast.ForStmt:
		return b.forStmt(s, cur, label)

	case *ast.RangeStmt:
		return b.rangeStmt(s, cur, label)

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			cur.Nodes = append(cur.Nodes, s.Tag)
		}
		return b.switchBody(s.Body, cur, label)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Assign)
		return b.switchBody(s.Body, cur, label)

	case *ast.SelectStmt:
		return b.selectStmt(s, cur, label)

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, s)
		if noReturnCall(s.X) {
			return nil // panic/os.Exit: the path ends here
		}
		return cur

	default:
		// Assignments, declarations, sends, go statements, inc/dec:
		// straight-line nodes.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt, cur *CFGBlock) *CFGBlock {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := b.breakTarget(label); t != nil {
			b.edge(cur, t)
		} else {
			b.edge(cur, b.cfg.Exit)
		}
	case token.CONTINUE:
		if t := b.continueTarget(label); t != nil {
			b.edge(cur, t)
		} else {
			b.edge(cur, b.cfg.Exit)
		}
	case token.GOTO:
		// Conservative: abandon the path (see the package note).
		b.edge(cur, b.cfg.Exit)
	case token.FALLTHROUGH:
		// Handled structurally by switchBody; reaching here means a
		// malformed fallthrough — drop the path.
	}
	return nil
}

func (b *cfgBuilder) breakTarget(label string) *CFGBlock {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := b.loops[i]
		if label == "" || f.label == label {
			return f.brk
		}
	}
	return nil
}

func (b *cfgBuilder) continueTarget(label string) *CFGBlock {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := b.loops[i]
		if f.cont == nil {
			continue // switch/select frames are not continue targets
		}
		if label == "" || f.label == label {
			return f.cont
		}
	}
	return nil
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt, cur *CFGBlock) *CFGBlock {
	if s.Init != nil {
		cur.Nodes = append(cur.Nodes, s.Init)
	}
	cur.Nodes = append(cur.Nodes, s.Cond)

	join := b.newBlock()
	thenBlk := b.newBlock()
	b.edge(cur, thenBlk)
	if end := b.stmtList(s.Body.List, thenBlk); end != nil {
		b.edge(end, join)
	}
	switch e := s.Else.(type) {
	case nil:
		b.edge(cur, join)
	case *ast.BlockStmt:
		elseBlk := b.newBlock()
		b.edge(cur, elseBlk)
		if end := b.stmtList(e.List, elseBlk); end != nil {
			b.edge(end, join)
		}
	case *ast.IfStmt:
		elseBlk := b.newBlock()
		b.edge(cur, elseBlk)
		if end := b.stmt(e, elseBlk, ""); end != nil {
			b.edge(end, join)
		}
	}
	if len(join.Succs) == 0 && !hasPred(b.cfg, join) {
		// Both arms diverged; the join is dead. Keep it in Blocks (the
		// dataflow skips blocks with no in-state) and report divergence.
		return nil
	}
	return join
}

func hasPred(cfg *CFG, blk *CFGBlock) bool {
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			if s == blk {
				return true
			}
		}
	}
	return false
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, cur *CFGBlock, label string) *CFGBlock {
	if s.Init != nil {
		cur.Nodes = append(cur.Nodes, s.Init)
	}
	header := b.newBlock()
	b.edge(cur, header)
	if s.Cond != nil {
		header.Nodes = append(header.Nodes, s.Cond)
	}
	done := b.newBlock()
	post := b.newBlock()
	if s.Cond != nil {
		b.edge(header, done)
	}

	body := b.newBlock()
	b.edge(header, body)
	b.loops = append(b.loops, loopFrame{label: label, brk: done, cont: post})
	end := b.stmtList(s.Body.List, body)
	b.loops = b.loops[:len(b.loops)-1]
	if end != nil {
		b.edge(end, post)
	}
	if s.Post != nil {
		post.Nodes = append(post.Nodes, s.Post)
	}
	b.edge(post, header)
	if s.Cond == nil && !hasPred(b.cfg, done) {
		return nil // for{} with no break never falls through
	}
	return done
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, cur *CFGBlock, label string) *CFGBlock {
	header := b.newBlock()
	b.edge(cur, header)
	// The range expression (and the per-iteration assignment targets)
	// evaluate in the header.
	header.Nodes = append(header.Nodes, s.X)
	if s.Key != nil {
		header.Nodes = append(header.Nodes, s.Key)
	}
	if s.Value != nil {
		header.Nodes = append(header.Nodes, s.Value)
	}
	done := b.newBlock()
	b.edge(header, done)

	body := b.newBlock()
	b.edge(header, body)
	b.loops = append(b.loops, loopFrame{label: label, brk: done, cont: header})
	end := b.stmtList(s.Body.List, body)
	b.loops = b.loops[:len(b.loops)-1]
	if end != nil {
		b.edge(end, header)
	}
	return done
}

// switchBody wires the case clauses of a switch or type switch: every
// clause is entered from the header, fallthrough chains clause bodies,
// and a missing default adds a header→join edge.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, header *CFGBlock, label string) *CFGBlock {
	join := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, brk: join, isSwitch: true})
	defer func() { b.loops = b.loops[:len(b.loops)-1] }()

	hasDefault := false
	// Clause entry blocks are created first so fallthrough can target
	// the next clause.
	var clauses []*ast.CaseClause
	var entries []*CFGBlock
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, cc)
		entries = append(entries, b.newBlock())
	}
	for i, cc := range clauses {
		entry := entries[i]
		b.edge(header, entry)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			entry.Nodes = append(entry.Nodes, e)
		}
		stmts := cc.Body
		fallsInto := -1
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				stmts = stmts[:n-1]
				fallsInto = i + 1
			}
		}
		end := b.stmtList(stmts, entry)
		if end != nil {
			if fallsInto >= 0 && fallsInto < len(entries) {
				b.edge(end, entries[fallsInto])
			} else {
				b.edge(end, join)
			}
		}
	}
	if !hasDefault {
		b.edge(header, join)
	}
	if !hasPred(b.cfg, join) {
		return nil
	}
	return join
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, cur *CFGBlock, label string) *CFGBlock {
	join := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, brk: join, isSwitch: true})
	defer func() { b.loops = b.loops[:len(b.loops)-1] }()

	reachedJoin := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		entry := b.newBlock()
		b.edge(cur, entry)
		if cc.Comm != nil {
			entry.Nodes = append(entry.Nodes, cc.Comm)
		}
		if end := b.stmtList(cc.Body, entry); end != nil {
			b.edge(end, join)
			reachedJoin = true
		}
	}
	if !reachedJoin && !hasPred(b.cfg, join) {
		return nil
	}
	return join
}

// noReturnCall recognises expression statements that never return:
// panic and the process-terminating standard-library calls.
func noReturnCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "runtime.Goexit":
			return true
		}
	}
	return false
}
