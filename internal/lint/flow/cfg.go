// Package flow is zslint's intraprocedural control-flow and dataflow
// engine. It builds a control-flow graph over one function body's go/ast
// (handling if/for/range/switch/type-switch/select/defer/goto and labeled
// break/continue) and runs a generic forward dataflow solver over it
// (solve.go). The concurrency checks — guardedby, lockorder,
// goroutinestop — sit on top in internal/lint; this package knows nothing
// about locks or types, only about statement ordering.
//
// The graph is deliberately simple: a Block is a straight-line sequence of
// leaf nodes (statements and the control expressions of the statements that
// branch), and edges are the possible successors. Compound statements never
// appear as block nodes — their pieces are distributed so a walker that
// visits Block.Nodes in order sees each executable expression exactly once,
// in evaluation order.
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one straight-line run of nodes. Nodes holds leaf statements and
// branch-head expressions (an if condition, a switch tag, a range operand)
// in evaluation order; compound statements are decomposed into blocks, so
// walking Nodes never revisits a nested body.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block // every return, panic and fall-off-the-end edges here
	Blocks []*Block

	// Defers lists every defer's call expression in source order. The
	// builder is path-insensitive about which defers actually ran; callers
	// that model function exit (lock summaries) apply all of them, which
	// under-approximates held locks — the safe direction for a must
	// analysis.
	Defers []*ast.CallExpr
}

// New builds the CFG of a function body. A nil body yields a graph whose
// entry falls straight through to the exit.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edge(b.cur, b.g.Exit)
	for _, pg := range b.gotos {
		if target := b.labels[pg.label]; target != nil {
			b.edge(pg.from, target)
		}
	}
	return b.g
}

// ExitReachable reports whether some path from the entry reaches the exit —
// i.e. whether the function can terminate. A goroutine body whose exit is
// unreachable (for {} with no break, a receive loop with no ok-check) can
// never be stopped.
func (g *Graph) ExitReachable() bool {
	seen := make(map[*Block]bool)
	var visit func(b *Block) bool
	visit = func(b *Block) bool {
		if b == g.Exit {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if visit(s) {
				return true
			}
		}
		return false
	}
	return visit(g.Entry)
}

type pendingGoto struct {
	from  *Block
	label string
}

// breakTarget is one enclosing breakable/continuable construct.
type breakTarget struct {
	label string
	block *Block
}

type builder struct {
	g         *Graph
	cur       *Block
	breaks    []breakTarget
	continues []breakTarget
	labels    map[string]*Block
	gotos     []pendingGoto
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// dead starts a fresh block with no predecessors, for code after a
// return/branch; it stays unreachable unless a label lands on it.
func (b *builder) dead() {
	b.cur = b.newBlock()
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

func (b *builder) findBreak(label string) *Block {
	for i := len(b.breaks) - 1; i >= 0; i-- {
		if label == "" || b.breaks[i].label == label {
			return b.breaks[i].block
		}
	}
	return nil
}

func (b *builder) findContinue(label string) *Block {
	for i := len(b.continues) - 1; i >= 0; i-- {
		if label == "" || b.continues[i].label == label {
			return b.continues[i].block
		}
	}
	return nil
}

// stmt lowers one statement. label is the name of the LabeledStmt directly
// wrapping it ("" otherwise): a labeled loop registers its break/continue
// targets under that name.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.edge(b.cur, lb)
		b.cur = lb
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = lb
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.dead()

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			name := ""
			if s.Label != nil {
				name = s.Label.Name
			}
			if t := b.findBreak(name); t != nil {
				b.edge(b.cur, t)
			}
			b.dead()
		case token.CONTINUE:
			name := ""
			if s.Label != nil {
				name = s.Label.Name
			}
			if t := b.findContinue(name); t != nil {
				b.edge(b.cur, t)
			}
			b.dead()
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			b.dead()
		case token.FALLTHROUGH:
			// The switch lowering adds the edge to the next clause.
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Cond)
		condEnd := b.cur
		thenBlk := b.newBlock()
		b.edge(condEnd, thenBlk)
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		thenEnd := b.cur
		join := b.newBlock()
		b.edge(thenEnd, join)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condEnd, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else, "")
			b.edge(b.cur, join)
		} else {
			b.edge(condEnd, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		b.edge(head, body)
		after := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after) // condition may be false on first test
		}
		contTarget := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			contTarget = post
		}
		b.breaks = append(b.breaks, breakTarget{label, after})
		b.continues = append(b.continues, breakTarget{label, contTarget})
		b.cur = body
		b.stmtList(s.Body.List)
		if post != nil {
			b.edge(b.cur, post)
			b.cur = post
			b.stmt(s.Post, "")
			b.edge(b.cur, head)
		} else {
			b.edge(b.cur, head)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		// The iteration variables are (re)assigned at the loop head; a
		// synthesized assignment keeps write/read classification honest for
		// walkers without embedding the whole RangeStmt (whose Body would
		// then be visited twice).
		if s.Key != nil {
			lhs := []ast.Expr{s.Key}
			if s.Value != nil {
				lhs = append(lhs, s.Value)
			}
			b.add(&ast.AssignStmt{Lhs: lhs, TokPos: s.TokPos, Tok: token.ASSIGN, Rhs: []ast.Expr{s.X}})
		} else {
			b.add(s.X)
		}
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after) // zero iterations
		b.breaks = append(b.breaks, breakTarget{label, after})
		b.continues = append(b.continues, breakTarget{label, head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, label, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, label, false)

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.breaks = append(b.breaks, breakTarget{label, after})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		// A select blocks until a case is ready; with no cases it blocks
		// forever, so `after` keeps no edge from the head either way.
		b.cur = after

	case *ast.DeferStmt:
		// Arguments are evaluated here; the call itself runs at exit.
		b.add(s)
		b.g.Defers = append(b.g.Defers, s.Call)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && id.Obj == nil {
				b.edge(b.cur, b.g.Exit)
				b.dead()
			}
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, IncDec, Send, Go, Decl, ...: straight-line leaves.
		b.add(s)
	}
}

// switchClauses lowers expression- and type-switch clause lists. Each clause
// is entered from the switch head; fallthrough (expression switches only)
// chains one clause body into the next.
func (b *builder) switchClauses(clauses []ast.Stmt, label string, allowFallthrough bool) {
	head := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, breakTarget{label, after})
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		bodies[i] = b.newBlock()
		b.edge(head, bodies[i])
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after) // no case matched
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		b.cur = bodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fallsThrough := false
		if allowFallthrough && len(cc.Body) > 0 {
			if br, ok := cc.Body[len(cc.Body)-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmtList(cc.Body)
		if fallsThrough && i+1 < len(bodies) {
			b.edge(b.cur, bodies[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}
