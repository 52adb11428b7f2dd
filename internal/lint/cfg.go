package lint

// Per-function control-flow graphs, built straight from go/ast (DESIGN.md
// §11). Every qslint analyzer that asks a path question — which latches are
// held here, has the log been forced on every path, can this loop reach the
// exit — reads a function body through this graph:
//
//   - every basic block is a straight-line slice of evaluation steps
//     (simple statements plus the condition/tag expressions that guard
//     branches), in source evaluation order;
//   - branches (if/switch/type switch/select), loops (for/range, including
//     labeled break/continue and fallthrough), early returns, and
//     terminating calls (panic, os.Exit, log.Fatal*, runtime.Goexit) all
//     become edges;
//   - an if's head block records its condition, and its first successor is
//     the edge taken when the condition holds, so a dataflow can give the
//     two edges different facts (a TryLock holds its latch on one only);
//   - a `for` with no condition gets no loop-head → after edge, so "the
//     exit is unreachable from inside this loop" is a plain reachability
//     query (the goroutine-lifecycle analyzer's core);
//   - defer and go statements appear as ordinary nodes, and a function
//     literal's body is a graph of its own (funcBodies); the dataflow
//     clients decide their semantics.
//
// Approximations, chosen to stay small and honest: goto edges go to the
// function exit (none of the protocol code uses goto); a select's comm
// clauses contribute only their bodies (the blocking decision is judged at
// the *ast.SelectStmt node itself, which sits in the head block); panic
// recovery is ignored.

import (
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block: straight-line evaluation steps and successor
// edges.
type Block struct {
	Nodes []ast.Node // simple stmts and guard exprs, evaluation order
	Succs []*Block
	// Cond is the condition of the if this block heads: Succs[0] is the edge
	// taken when it holds, Succs[1] the one taken when it does not.
	Cond ast.Expr
}

// CFG is one function body's control-flow graph.
type CFG struct {
	Entry  *Block
	Exit   *Block // every return/fallthrough-off-the-end edge lands here
	Blocks []*Block
}

// Preds returns the predecessor map (computed on demand; the builder only
// stores forward edges).
func (c *CFG) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(c.Blocks))
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// ReachesExit returns the set of blocks from which Exit is reachable.
func (c *CFG) ReachesExit() map[*Block]bool {
	preds := c.Preds()
	can := make(map[*Block]bool, len(c.Blocks))
	var mark func(b *Block)
	mark = func(b *Block) {
		if can[b] {
			return
		}
		can[b] = true
		for _, p := range preds[b] {
			mark(p)
		}
	}
	mark(c.Exit)
	return can
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{c: &CFG{}}
	b.c.Entry = b.newBlock()
	b.c.Exit = b.newBlock()
	b.cur = b.c.Entry
	b.stmts(body.List)
	b.edge(b.cur, b.c.Exit)
	return b.c
}

// funcBodies returns body and the body of every function literal inside it:
// each runs as a function of its own (on another goroutine, or at some later
// point), so each gets its own graph and starts from its own entry fact.
func funcBodies(body *ast.BlockStmt) []*ast.BlockStmt {
	out := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			out = append(out, fl.Body)
		}
		return true
	})
	return out
}

// ctrlFrame is one enclosing breakable/continuable construct.
type ctrlFrame struct {
	label      string
	isLoop     bool
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

type cfgBuilder struct {
	c            *CFG
	cur          *Block
	frames       []ctrlFrame
	pendingLabel string
	fallTarget   *Block // next case clause, for fallthrough
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.c.Blocks = append(b.c.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// takeLabel consumes the label set by an enclosing LabeledStmt.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) push(f ctrlFrame) { b.frames = append(b.frames, f) }
func (b *cfgBuilder) pop()             { b.frames = b.frames[:len(b.frames)-1] }

// frameFor finds the branch target: the innermost matching frame (loops
// only, for continue).
func (b *cfgBuilder) frameFor(label string, needLoop bool) *ctrlFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needLoop && !f.isLoop {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

// deadBlock parks subsequent statements after a jump: no predecessors, so
// dataflow never visits them.
func (b *cfgBuilder) deadBlock() { b.cur = b.newBlock() }

// terminates reports whether an expression statement can never return:
// panic(...), os.Exit, log.Fatal*, runtime.Goexit, or a testing Fatal.
// Purely syntactic, which is all the spawning code needs.
func terminates(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fn.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fn.Sel.Name == "Exit":
			return true
		case pkg.Name == "log" && strings.HasPrefix(fn.Sel.Name, "Fatal"):
			return true
		case pkg.Name == "runtime" && fn.Sel.Name == "Goexit":
			return true
		case strings.HasPrefix(fn.Sel.Name, "Fatal"): // t.Fatal / t.Fatalf
			return pkg.Name == "t" || pkg.Name == "b"
		}
	}
	return false
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		b.stmts(x.List)

	case *ast.LabeledStmt:
		b.pendingLabel = x.Label.Name
		b.stmt(x.Stmt)
		b.pendingLabel = ""

	case *ast.ExprStmt:
		b.add(x)
		if terminates(x.X) {
			b.edge(b.cur, b.c.Exit)
			b.deadBlock()
		}

	case *ast.ReturnStmt:
		b.add(x)
		b.edge(b.cur, b.c.Exit)
		b.deadBlock()

	case *ast.BranchStmt:
		switch x.Tok {
		case token.BREAK:
			label := ""
			if x.Label != nil {
				label = x.Label.Name
			}
			if f := b.frameFor(label, false); f != nil {
				b.edge(b.cur, f.breakTo)
			} else {
				b.edge(b.cur, b.c.Exit)
			}
			b.deadBlock()
		case token.CONTINUE:
			label := ""
			if x.Label != nil {
				label = x.Label.Name
			}
			if f := b.frameFor(label, true); f != nil && f.continueTo != nil {
				b.edge(b.cur, f.continueTo)
			} else {
				b.edge(b.cur, b.c.Exit)
			}
			b.deadBlock()
		case token.FALLTHROUGH:
			if b.fallTarget != nil {
				b.edge(b.cur, b.fallTarget)
			}
			b.deadBlock()
		case token.GOTO:
			// Approximate: structured protocol code has no goto; an edge to
			// the exit keeps the graph sound enough for may-analyses.
			b.edge(b.cur, b.c.Exit)
			b.deadBlock()
		}

	case *ast.IfStmt:
		b.takeLabel()
		if x.Init != nil {
			b.stmt(x.Init)
		}
		b.add(x.Cond)
		head := b.cur
		head.Cond = x.Cond
		thenB := b.newBlock()
		afterB := b.newBlock()
		b.edge(head, thenB)
		b.cur = thenB
		b.stmts(x.Body.List)
		b.edge(b.cur, afterB)
		if x.Else != nil {
			elseB := b.newBlock()
			b.edge(head, elseB)
			b.cur = elseB
			b.stmt(x.Else)
			b.edge(b.cur, afterB)
		} else {
			b.edge(head, afterB)
		}
		b.cur = afterB

	case *ast.ForStmt:
		label := b.takeLabel()
		if x.Init != nil {
			b.stmt(x.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if x.Cond != nil {
			b.add(x.Cond)
		}
		bodyB := b.newBlock()
		afterB := b.newBlock()
		b.edge(head, bodyB)
		if x.Cond != nil {
			// A condition-less `for {}` deliberately has no head→after edge:
			// its exit is unreachable unless the body breaks or returns.
			b.edge(head, afterB)
		}
		contTo := head
		var postB *Block
		if x.Post != nil {
			postB = b.newBlock()
			contTo = postB
		}
		b.push(ctrlFrame{label: label, isLoop: true, breakTo: afterB, continueTo: contTo})
		b.cur = bodyB
		b.stmts(x.Body.List)
		if postB != nil {
			b.edge(b.cur, postB)
			b.cur = postB
			b.stmt(x.Post)
		}
		b.edge(b.cur, head)
		b.pop()
		b.cur = afterB

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(x.X)
		head := b.newBlock()
		b.edge(b.cur, head)
		bodyB := b.newBlock()
		afterB := b.newBlock()
		b.edge(head, bodyB)
		b.edge(head, afterB)
		b.push(ctrlFrame{label: label, isLoop: true, breakTo: afterB, continueTo: head})
		b.cur = bodyB
		b.stmts(x.Body.List)
		b.edge(b.cur, head)
		b.pop()
		b.cur = afterB

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if x.Init != nil {
			b.stmt(x.Init)
		}
		if x.Tag != nil {
			b.add(x.Tag)
		}
		b.caseClauses(label, x.Body.List, nil)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if x.Init != nil {
			b.stmt(x.Init)
		}
		b.add(x.Assign)
		b.caseClauses(label, x.Body.List, nil)

	case *ast.SelectStmt:
		label := b.takeLabel()
		// The select node itself sits in the head block: clients judge its
		// blocking behavior (default present or not) there. Clause bodies
		// become ordinary blocks.
		b.add(x)
		head := b.cur
		afterB := b.newBlock()
		b.push(ctrlFrame{label: label, breakTo: afterB})
		for _, cc := range x.Body.List {
			clause, ok := cc.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			b.stmts(clause.Body)
			b.edge(b.cur, afterB)
		}
		if len(x.Body.List) == 0 {
			// select {}: blocks forever; no edge out.
			b.deadBlock()
			b.pop()
			return
		}
		b.pop()
		b.cur = afterB

	default:
		// Assign, Decl, Send, IncDec, Defer, Go, Empty: straight-line steps.
		b.add(s)
	}
}

// caseClauses builds switch/type-switch clause blocks, threading
// fallthrough targets.
func (b *cfgBuilder) caseClauses(label string, clauses []ast.Stmt, _ *Block) {
	head := b.cur
	afterB := b.newBlock()
	b.push(ctrlFrame{label: label, breakTo: afterB})
	hasDefault := false
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
	}
	for i, cc := range clauses {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		b.edge(head, blocks[i])
		b.cur = blocks[i]
		for _, e := range clause.List {
			b.add(e)
		}
		savedFall := b.fallTarget
		if i+1 < len(blocks) {
			b.fallTarget = blocks[i+1]
		} else {
			b.fallTarget = nil
		}
		b.stmts(clause.Body)
		b.fallTarget = savedFall
		b.edge(b.cur, afterB)
	}
	if !hasDefault {
		b.edge(head, afterB)
	}
	b.pop()
	b.cur = afterB
}
