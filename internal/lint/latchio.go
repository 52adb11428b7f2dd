package lint

// latch-io: no slow or blocking operation while holding a buffer shard
// latch or a leaf mutex. Latches serialize the page-level protocol; an
// I/O or a channel wait under one turns every contending session's cache
// hit into a disk-speed stall (the paper's §6 latch-convoy pathology).
// The rules encode the repo's documented protocol, not a blanket ban:
//
//   - wal Force/CommitWait/ForceFull under a shard latch or leaf mutex:
//     forbidden. The commit path deliberately releases attMu before
//     forcing, the cleaner forces latch-free and re-latches; the one
//     exception (scrub's repairImage, which must force redo before
//     overwriting a corrupt page image) carries a //qslint:allow.
//   - wal.Append under a shard latch: forbidden. Append under attMu is
//     the §13 commit protocol (it orders the append with the table
//     mutations) and stays legal.
//   - disk Store I/O (ReadPage/WritePage/ForEachPage on any disk.Store
//     implementor, wherever declared) under a LEAF mutex: forbidden. Under a shard latch it is the eviction/cleaner/scrub
//     protocol — the latch is exactly what makes the frame image stable
//     while it is written — so shard-latch disk I/O is legal.
//   - blocking constructs (channel send/receive, select without default,
//     time.Sleep) under either: forbidden. sync.Cond.Wait is exempt when
//     exactly one leaf mutex is held — Wait atomically releases its own
//     mutex (the primary's ack wait) — but flagged when another shard latch
//     or leaf mutex is held on top (the gate and ckptMu do not count).
//
// The held set is latch-order's: the same may-held dataflow over the CFG,
// driven by the same held-latch step (locks.go), so a diagnostic means some
// path reaches the operation with the latch held, and the two analyzers
// never disagree about what is held. Calls into module functions are
// checked against the interprocedural may-summaries (callee may force / may
// block / may touch the store), so a helper that forces deep in the call
// chain is caught at the latched call site.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LatchIO is the no-I/O-under-latch analyzer.
type LatchIO struct{}

func (LatchIO) Name() string { return "latch-io" }
func (LatchIO) Doc() string {
	return "no wal force, disk store I/O, or blocking operation while holding a shard latch or leaf mutex (DESIGN.md §S9)"
}

const (
	bitMayForce = 1 << iota
	bitMayBlock
	bitMayStore
	bitMayAppendWAL
)

type latchIOChecker struct {
	latchClassifier
	report Reporter
	sums   *summaries
	may    map[*types.Func]uint32
	store  *types.Interface
}

func (LatchIO) Check(m *Module, pkgs []*Package, report Reporter) {
	c := &latchIOChecker{latchClassifier: latchClassifier{m: m}, report: report, store: storeInterface(m)}
	c.sums = collectFuncs(m, pkgs, "latch-io", false)

	seed := make(map[*types.Func]uint32, len(c.sums.funcs))
	for _, obj := range c.sums.order {
		mf := c.sums.funcs[obj]
		if mf.Allowed {
			continue
		}
		c.pkg = mf.Pkg
		seed[obj] = c.directEffects(mf.Decl.Body)
	}
	c.may = c.sums.propagateMay(seed)

	for _, obj := range c.sums.order {
		mf := c.sums.funcs[obj]
		if mf.Allowed {
			continue
		}
		c.pkg = mf.Pkg
		c.runHeld(mf, c.check)
	}
}

// directEffects scans one body (function literals excluded — they run on
// their own goroutine, under their own latch state) for slow-operation
// bits.
func (c *latchIOChecker) directEffects(body ast.Node) uint32 {
	var bits uint32
	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			bits |= bitMayBlock
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				bits |= bitMayBlock
			}
		case *ast.SelectStmt:
			// Judge blocking at the select itself: a comm clause's send or
			// receive only runs as part of the select, so a default-guarded
			// select is non-blocking no matter what its cases name. Clause
			// bodies still scan normally.
			if !selectHasDefault(x) {
				bits |= bitMayBlock
			}
			for _, cc := range x.Body.List {
				if clause, ok := cc.(*ast.CommClause); ok {
					for _, st := range clause.Body {
						ast.Inspect(st, scan)
					}
				}
			}
			return false
		case *ast.CallExpr:
			switch {
			case walCall(c.m, c.pkg, x, "Force", "CommitWait", "ForceFull"):
				bits |= bitMayForce
			case walCall(c.m, c.pkg, x, "Append"):
				bits |= bitMayAppendWAL
			case storeCall(c.pkg, c.store, x, diskIO...):
				bits |= bitMayStore
			case isTimeSleep(c.pkg, x) || c.isCondWait(x):
				bits |= bitMayBlock
			}
		}
		return true
	}
	ast.Inspect(body, scan)
	return bits
}

// tracked reports the innermost tracked latch (shard preferred for the
// message), or nil when neither a shard latch nor a leaf mutex is held.
func (h heldSet) tracked() *held {
	if s := h.anyAt(levelShard); s != nil {
		return s
	}
	return h.anyAt(levelLeaf)
}

// check judges one node against the latches held just before it.
func (c *latchIOChecker) check(n ast.Node, ev event, fact heldSet) {
	t := fact.tracked()
	if t == nil {
		return
	}
	switch x := n.(type) {
	case *ast.SelectStmt:
		if !selectHasDefault(x) {
			c.report(c.pkg, x.Pos(), "blocking select while holding %s (%s): a latched session must never wait on channel traffic",
				t.name, levelName[t.level])
		}
	case *ast.SendStmt:
		c.report(c.pkg, x.Pos(), "channel send while holding %s (%s): a latched session must never wait on channel traffic",
			t.name, levelName[t.level])
	case *ast.UnaryExpr:
		c.report(c.pkg, x.Pos(), "channel receive while holding %s (%s): a latched session must never wait on channel traffic",
			t.name, levelName[t.level])
	case *ast.CallExpr:
		if ev.kind == evNone || ev.kind == evCall {
			c.checkCall(x, t, fact)
		}
	}
}

// checkCall judges a call that is not itself a latch event.
func (c *latchIOChecker) checkCall(call *ast.CallExpr, t *held, fact heldSet) {
	shard := fact.anyAt(levelShard)
	switch {
	case walCall(c.m, c.pkg, call, "Force", "CommitWait", "ForceFull"):
		c.report(c.pkg, call.Pos(), "wal force while holding %s (%s): release the latch first — the commit path forces after attMu, the cleaner forces latch-free (DESIGN.md §13)",
			t.name, levelName[t.level])
	case walCall(c.m, c.pkg, call, "Append") && shard != nil:
		c.report(c.pkg, call.Pos(), "wal append while holding shard latch %s: log appends belong to the attMu commit section, never under a page latch",
			shard.name)
	case storeCall(c.pkg, c.store, call, diskIO...) && shard == nil:
		c.report(c.pkg, call.Pos(), "disk store I/O while holding %s (leaf mutex): only shard-latched page writes (eviction, cleaning, scrub) may touch the store",
			t.name)
	case isTimeSleep(c.pkg, call):
		c.report(c.pkg, call.Pos(), "time.Sleep while holding %s (%s)", t.name, levelName[t.level])
	case c.isCondWait(call):
		// Wait releases its own mutex; holding exactly that one leaf is the
		// canonical pattern. Anything more is a convoy. The gate and ckptMu
		// sit above every tracked latch and do not count.
		n := 0
		for _, h := range fact {
			if h.level == levelShard || h.level == levelLeaf {
				n++
			}
		}
		if n > 1 || shard != nil {
			c.report(c.pkg, call.Pos(), "sync.Cond.Wait with %d tracked latches held (Wait only releases its own mutex; everything else stays held while parked)",
				n)
		}
	default:
		callee := resolveModuleCall(c.m, c.pkg, call)
		if cf := c.sums.funcs[callee]; cf == nil || cf.Allowed {
			return
		}
		switch bits := c.may[callee]; {
		case bits&bitMayForce != 0:
			c.report(c.pkg, call.Pos(), "call to %s, which may force the wal, while holding %s (%s)",
				callee.Name(), t.name, levelName[t.level])
		case bits&bitMayAppendWAL != 0 && shard != nil:
			c.report(c.pkg, call.Pos(), "call to %s, which may append to the wal, while holding shard latch %s",
				callee.Name(), shard.name)
		case bits&bitMayStore != 0 && shard == nil:
			c.report(c.pkg, call.Pos(), "call to %s, which may touch the disk store, while holding %s (leaf mutex)",
				callee.Name(), t.name)
		case bits&bitMayBlock != 0:
			c.report(c.pkg, call.Pos(), "call to %s, which may block on channel traffic or sleep, while holding %s (%s)",
				callee.Name(), t.name, levelName[t.level])
		}
	}
}

// --- event recognition ------------------------------------------------------

// diskIO are the disk.Store methods that do page I/O.
var diskIO = []string{"ReadPage", "WritePage", "ForEachPage"}

func (c *latchIOChecker) isCondWait(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	tv, ok := c.pkg.Info.Types[sel.X]
	return ok && isNamedType(tv.Type, "sync", "Cond")
}

func isTimeSleep(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sleep" {
		return false
	}
	obj := pkg.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if clause, ok := cc.(*ast.CommClause); ok && clause.Comm == nil {
			return true
		}
	}
	return false
}
