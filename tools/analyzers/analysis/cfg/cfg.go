// Package cfg builds per-function control-flow graphs from Go syntax and
// provides a forward-dataflow fixpoint engine over them. It is the
// path-structure substrate of the whole-program analyzer detflow:
// the AST-walking lints reason about one statement at a time, while a CFG
// lets an analyzer ask "what states can reach this point" across branches,
// loops and early exits.
//
// The graph is deliberately simple: a Block is a maximal straight-line
// sequence of statements (plus the header expressions of the construct that
// opened it), and Succs are the possible successor blocks. Return statements
// edge to the synthetic Exit block; a call to the panic builtin terminates
// its block with no successors (the path does not continue in this
// function). goto is not supported — it does not occur in this repository —
// and is likewise treated as terminating, which is conservative for
// reachability-style checks.
package cfg

import (
	"go/ast"
	"go/token"
)

// A Block is a straight-line run of nodes with no internal control flow.
// Nodes holds statements and, for construct headers, the relevant
// sub-expressions (an *ast.IfStmt's Cond, a *ast.RangeStmt itself, a
// *ast.CommClause's Comm statement) in execution order.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	Blocks []*Block // in creation order; Blocks[i].Index == i
	Entry  *Block
	Exit   *Block // synthetic normal-exit block, always last
}

// New builds the control-flow graph of a function body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{}
	entry := b.newBlock()
	exitB := b.newBlock()
	g := &Graph{Entry: entry, Exit: exitB}
	b.exit = exitB
	cur := b.stmts(entry, body.List)
	if cur != nil {
		b.edge(cur, exitB)
	}
	// The exit block was created second but belongs last; renumber.
	blocks := make([]*Block, 0, len(b.blocks))
	for _, blk := range b.blocks {
		if blk != exitB {
			blocks = append(blocks, blk)
		}
	}
	blocks = append(blocks, exitB)
	for i, blk := range blocks {
		blk.Index = i
	}
	g.Blocks = blocks
	return g
}

type builder struct {
	blocks []*Block
	exit   *Block
	// loops and switches record break/continue targets, innermost last.
	// label is the statement label, "" if none.
	breaks    []jumpTarget
	continues []jumpTarget
	// pendingLabel is the label of a LabeledStmt being built, consumed by
	// the next loop/switch/select construct.
	pendingLabel string
}

type jumpTarget struct {
	label string
	block *Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.blocks)}
	b.blocks = append(b.blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// stmts builds the statement list starting in cur and returns the block in
// which control continues, or nil if every path has left the list (return,
// panic, break, ...). Statements after a terminated path still get blocks
// (unreachable, no predecessors) so analyzers can see their syntax.
func (b *builder) stmts(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		if cur == nil {
			cur = b.newBlock() // unreachable continuation
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

func (b *builder) stmt(cur *Block, s ast.Stmt) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(cur, s.List)

	case *ast.LabeledStmt:
		saved := b.pendingLabel
		b.pendingLabel = s.Label.Name
		out := b.stmt(cur, s.Stmt)
		b.pendingLabel = saved
		return out

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.exit)
		return nil

	case *ast.BranchStmt:
		cur.Nodes = append(cur.Nodes, s)
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := findTarget(b.breaks, label); t != nil {
				b.edge(cur, t)
			}
		case token.CONTINUE:
			if t := findTarget(b.continues, label); t != nil {
				b.edge(cur, t)
			}
		case token.GOTO:
			// Unsupported: treat as terminating (absent from this repo).
		case token.FALLTHROUGH:
			// Handled by the switch builder; nothing to do here.
			return cur
		}
		return nil

	case *ast.IfStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Cond)
		thenB := b.newBlock()
		b.edge(cur, thenB)
		thenOut := b.stmts(thenB, s.Body.List)
		var elseOut *Block
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cur, elseB)
			elseOut = b.stmt(elseB, s.Else)
		}
		join := b.newBlock()
		if thenOut != nil {
			b.edge(thenOut, join)
		}
		if s.Else == nil {
			b.edge(cur, join)
		} else if elseOut != nil {
			b.edge(elseOut, join)
		}
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		after := b.newBlock()
		post := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after)
		}
		body := b.newBlock()
		b.edge(head, body)
		bodyOut := b.loopBody(body, s.Body.List, after, post)
		if bodyOut != nil {
			b.edge(bodyOut, post)
		}
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		b.edge(post, head)
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(cur, head)
		head.Nodes = append(head.Nodes, s) // analyzers key on the RangeStmt itself
		after := b.newBlock()
		b.edge(head, after)
		body := b.newBlock()
		b.edge(head, body)
		bodyOut := b.loopBody(body, s.Body.List, after, head)
		if bodyOut != nil {
			b.edge(bodyOut, head)
		}
		return after

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			cur.Nodes = append(cur.Nodes, s.Tag)
		}
		return b.cases(cur, s.Body.List, false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Assign)
		return b.cases(cur, s.Body.List, false)

	case *ast.SelectStmt:
		return b.cases(cur, s.Body.List, true)

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, s)
		if isPanic(s.X) {
			return nil
		}
		return cur

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, DeferStmt,
		// EmptyStmt: straight-line.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// loopBody builds a loop body with break/continue targets pushed, returning
// the fall-off-end block (nil if the body always jumps away).
func (b *builder) loopBody(body *Block, list []ast.Stmt, breakTo, continueTo *Block) *Block {
	label := b.pendingLabel
	b.pendingLabel = ""
	b.breaks = append(b.breaks, jumpTarget{"", breakTo})
	b.continues = append(b.continues, jumpTarget{"", continueTo})
	if label != "" {
		b.breaks = append(b.breaks, jumpTarget{label, breakTo})
		b.continues = append(b.continues, jumpTarget{label, continueTo})
	}
	out := b.stmts(body, list)
	n := 1
	if label != "" {
		n = 2
	}
	b.breaks = b.breaks[:len(b.breaks)-n]
	b.continues = b.continues[:len(b.continues)-n]
	return out
}

// cases builds a switch/type-switch/select body: one block per clause, a
// shared join block reached by every falling-off clause and — for a
// non-select without a default clause — directly from the header.
func (b *builder) cases(cur *Block, clauses []ast.Stmt, isSelect bool) *Block {
	label := b.pendingLabel
	b.pendingLabel = ""
	join := b.newBlock()
	b.breaks = append(b.breaks, jumpTarget{"", join})
	if label != "" {
		b.breaks = append(b.breaks, jumpTarget{label, join})
	}
	hasDefault := false
	// Pre-create clause blocks so fallthrough can edge to the next one.
	blks := make([]*Block, len(clauses))
	for i := range clauses {
		blks[i] = b.newBlock()
		b.edge(cur, blks[i])
	}
	for i, cl := range clauses {
		var bodyList []ast.Stmt
		fallsThrough := false
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			bodyList = cl.Body
			if n := len(bodyList); n > 0 {
				if br, ok := bodyList[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					fallsThrough = true
					bodyList = bodyList[:n-1]
				}
			}
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				blks[i].Nodes = append(blks[i].Nodes, cl.Comm)
			}
			bodyList = cl.Body
		}
		out := b.stmts(blks[i], bodyList)
		if out != nil {
			if fallsThrough && i+1 < len(blks) {
				b.edge(out, blks[i+1])
			} else {
				b.edge(out, join)
			}
		}
	}
	if !hasDefault && !isSelect {
		b.edge(cur, join) // the switch may match no case
	}
	n := 1
	if label != "" {
		n = 2
	}
	b.breaks = b.breaks[:len(b.breaks)-n]
	return join
}

func findTarget(stack []jumpTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

// isPanic reports whether e is a call to the panic builtin.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Forward runs a forward-dataflow fixpoint over g and returns the in-state
// of every block, indexed by Block.Index. The entry block's in-state is
// init; transfer maps a block's in-state to its out-state (it must not
// mutate its argument); join merges a predecessor's out-state into a
// block's pending in-state, reporting whether the in-state changed (its
// first argument may be the zero value of S for a block not yet reached).
// Blocks are processed in index order, which approximates reverse postorder
// for graphs built by New; the worklist guarantees convergence regardless.
func Forward[S any](g *Graph, init S, transfer func(*Block, S) S, join func(into S, from S, first bool) (S, bool)) []S {
	in := make([]S, len(g.Blocks))
	seen := make([]bool, len(g.Blocks))
	in[g.Entry.Index] = init
	seen[g.Entry.Index] = true
	onList := make([]bool, len(g.Blocks))
	work := []*Block{g.Entry}
	onList[g.Entry.Index] = true
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		onList[blk.Index] = false
		out := transfer(blk, in[blk.Index])
		for _, succ := range blk.Succs {
			merged, changed := join(in[succ.Index], out, !seen[succ.Index])
			if changed || !seen[succ.Index] {
				in[succ.Index] = merged
				seen[succ.Index] = true
				if !onList[succ.Index] {
					work = append(work, succ)
					onList[succ.Index] = true
				}
			}
		}
	}
	return in
}
