package lint

// A small forward abstract-interpretation engine over the CFG (DESIGN.md
// §11). An analyzer supplies the lattice (bottom element, merge), a
// transfer function and, optionally, a branch refinement; the engine runs
// the usual worklist iteration to a fixed point and hands back the fact at
// every reachable block's entry.
//
// Diagnostics are NOT emitted during fixpoint iteration — a block may be
// visited many times as facts refine. Clients call Replay afterwards: one
// final deterministic pass over each reachable block with its fixed entry
// fact, during which the transfer function (now given report=true) speaks.

import "go/ast"

// flow is one dataflow problem. T is the fact type (facts flow forward,
// merging at join points).
type flow[T any] struct {
	bottom func() T                   // fact at function entry
	clone  func(T) T                  // defensive copy for branching
	merge  func(dst, src T) (T, bool) // join; reports whether dst changed
	// transfer interprets one CFG node. report is false during fixpoint
	// iteration and true during the final replay pass.
	transfer func(n ast.Node, fact T, report bool) T
	// branch, if set, refines the fact leaving an if's head block along one
	// edge: taken is true on the edge followed when cond holds.
	branch func(cond ast.Expr, fact T, taken bool) T
}

// run iterates to a fixed point and returns the entry fact of every
// reachable block. Unreachable blocks (dead code after return/break) have
// no entry.
func runFlow[T any](c *CFG, fl flow[T]) map[*Block]T {
	in := make(map[*Block]T, len(c.Blocks))
	in[c.Entry] = fl.bottom()
	work := []*Block{c.Entry}
	queued := map[*Block]bool{c.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		fact := fl.clone(in[b])
		for _, n := range b.Nodes {
			fact = fl.transfer(n, fact, false)
		}
		for i, succ := range b.Succs {
			out := fact
			if b.Cond != nil && fl.branch != nil {
				out = fl.branch(b.Cond, fl.clone(fact), i == 0)
			}
			cur, seen := in[succ]
			var changed bool
			if !seen {
				in[succ] = fl.clone(out)
				changed = true
			} else {
				in[succ], changed = fl.merge(cur, out)
			}
			if changed && !queued[succ] {
				queued[succ] = true
				work = append(work, succ)
			}
		}
	}
	return in
}

// replay re-runs the transfer function once per reachable block with
// report=true, in deterministic block-creation order.
func replayFlow[T any](c *CFG, fl flow[T], in map[*Block]T) {
	for _, b := range c.Blocks {
		fact, ok := in[b]
		if !ok {
			continue
		}
		fact = fl.clone(fact)
		for _, n := range b.Nodes {
			fact = fl.transfer(n, fact, true)
		}
	}
}

// forEachCall visits every call expression under n in pre-order, skipping
// function-literal bodies (they execute on another goroutine or at an
// unknown later time, under their own abstract state).
func forEachCall(n ast.Node, f func(*ast.CallExpr)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			f(x)
		}
		return true
	})
}

// nodeCalls visits the calls a CFG node evaluates where it stands: a
// select's clause bodies are blocks of their own, and a deferred or spawned
// call runs at some later point.
func nodeCalls(n ast.Node, f func(*ast.CallExpr)) {
	switch n.(type) {
	case *ast.SelectStmt, *ast.DeferStmt, *ast.GoStmt:
		return
	}
	forEachCall(n, f)
}
