package lint

// force-before-ack: a durability acknowledgement must never cover log
// records that could still be lost. The repo has two acknowledgement
// shapes, both added by the replication PRs:
//
//   - the standby's applied watermark (Standby.applied, an atomic.Uint64):
//     the fetch loop reports it to the primary as "stable here", so every
//     Store must be dominated by a wal Force/CommitWait covering the
//     records just applied (DESIGN.md §14: apply → Force → advance);
//   - the primary's semi-sync commit reply: Config.CommitAck runs after
//     the commit record is stable locally, so a CommitAck call must be
//     dominated by the force of that record.
//
// The analysis is a forward all-paths ("must") dataflow over the CFG: the
// fact is "the log has been forced since the last append on this path".
// wal Force/CommitWait establish it; wal Append and ApplyShipped (which
// appends the shipped record locally) reset it; join points take AND, so
// one early return or skipped branch that acks without the force is
// reported even when the hot path is correct. Calls into module functions
// use the interprocedural summaries: a callee that forces on every path
// establishes the fact, a callee that may append resets it.
//
// Watermark stores of the form applied.Store(log.StableEnd()) are exempt:
// a value read from StableEnd is by definition already durable (the
// bootstrap and ReplayLocal paths).

import (
	"go/ast"
	"go/types"
)

// ForceAck is the force-before-ack protocol analyzer.
type ForceAck struct{}

func (ForceAck) Name() string { return "force-before-ack" }
func (ForceAck) Doc() string {
	return "a replication watermark store or semi-sync commit ack must be dominated by a wal force covering the records it acknowledges (DESIGN.md §14)"
}

const bitMayAppend = 1 << 0

type forceAckChecker struct {
	m    *Module
	pkg  *Package
	sums *summaries
	may  map[*types.Func]uint32
	must map[*types.Func]bool
}

func (ForceAck) Check(m *Module, pkgs []*Package, report Reporter) {
	c := &forceAckChecker{m: m}
	c.sums = collectFuncs(m, pkgs, "force-before-ack", false)

	seed := make(map[*types.Func]uint32, len(c.sums.funcs))
	for _, obj := range c.sums.order {
		mf := c.sums.funcs[obj]
		if mf.Allowed {
			continue
		}
		var bits uint32
		forEachCall(mf.Decl.Body, func(call *ast.CallExpr) {
			if c.isAppend(mf.Pkg, call) {
				bits |= bitMayAppend
			}
		})
		seed[obj] = bits
	}
	c.may = c.sums.propagateMay(seed)

	// mustForce: functions that force the log on every path, with any
	// trailing append un-doing it (Force then Append leaves the tail
	// unforced again).
	c.must = c.sums.propagateMust(
		func(mf *moduleFunc, n ast.Node) bool {
			found := false
			forEachCall(n, func(call *ast.CallExpr) {
				if c.isForce(mf.Pkg, call) {
					found = true
				}
			})
			return found
		},
		func(mf *moduleFunc, n ast.Node) bool {
			found := false
			forEachCall(n, func(call *ast.CallExpr) {
				if c.isAppend(mf.Pkg, call) {
					found = true
				}
			})
			return found
		},
	)

	for _, obj := range c.sums.order {
		mf := c.sums.funcs[obj]
		if mf.Allowed {
			continue
		}
		c.pkg = mf.Pkg
		cfg := c.sums.CFG(mf)
		fl := flow[bool]{
			bottom: func() bool { return false },
			clone:  func(b bool) bool { return b },
			merge: func(dst, src bool) (bool, bool) {
				merged := dst && src
				return merged, merged != dst
			},
			transfer: func(n ast.Node, fact bool, rep bool) bool {
				nodeCalls(n, func(call *ast.CallExpr) {
					switch {
					case c.isForce(c.pkg, call):
						fact = true
					case c.isAppend(c.pkg, call):
						fact = false
					default:
						if rep && !fact && c.isAck(call) {
							report(c.pkg, call.Pos(),
								"durability acknowledgement on a path where the wal may not have been forced since the last append: force (or CommitWait) before advancing the watermark (DESIGN.md §14)")
						}
						if callee := resolveModuleCall(c.m, c.pkg, call); callee != nil {
							if c.must[callee] {
								fact = true
							} else if c.may[callee]&bitMayAppend != 0 {
								fact = false
							}
						}
					}
				})
				return fact
			},
		}
		in := runFlow(cfg, fl)
		replayFlow(cfg, fl, in)
	}
}

// isForce: wal.Force / wal.CommitWait make the tail stable. ForceFull is
// NOT a force event — it flushes a partial block for the group-commit
// heuristic and gives no covering guarantee to this path's records.
func (c *forceAckChecker) isForce(pkg *Package, call *ast.CallExpr) bool {
	return walCall(c.m, pkg, call, "Force", "CommitWait")
}

// isAppend: wal.Append extends the unforced tail; ApplyShipped appends the
// shipped record into the local log (the standby's append).
func (c *forceAckChecker) isAppend(pkg *Package, call *ast.CallExpr) bool {
	if walCall(c.m, pkg, call, "Append") {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ApplyShipped" {
		return false
	}
	obj, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
	return obj != nil && inModule(c.m, obj.Pkg())
}

// isAck recognizes the two acknowledgement shapes: a Store on an atomic
// field named "applied", and a call through anything named CommitAck (the
// server's Config hook or the primary's method). applied.Store(...StableEnd())
// is exempt — a StableEnd-derived watermark is durable by construction.
func (c *forceAckChecker) isAck(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name == "CommitAck" {
		return true
	}
	if sel.Sel.Name != "Store" {
		return false
	}
	fx, ok := sel.X.(*ast.SelectorExpr)
	if !ok || fx.Sel.Name != "applied" {
		return false
	}
	tv, ok := c.pkg.Info.Types[sel.X]
	if !ok {
		return false
	}
	if n, ok := deref(tv.Type).(*types.Named); !ok || n.Obj().Pkg() == nil ||
		n.Obj().Pkg().Path() != "sync/atomic" {
		return false
	}
	for _, arg := range call.Args {
		exempt := false
		forEachCall(arg, func(inner *ast.CallExpr) {
			if s, ok := inner.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "StableEnd" {
				exempt = true
			}
		})
		if exempt {
			return false
		}
	}
	return true
}
