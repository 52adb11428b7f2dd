package lint

// latch-order, and the held-latch step it shares with latch-io.
//
// The DESIGN.md §S9 latch partial order is a level graph:
//
//	ckptMu (level 0) → gate (1) → one buffer shard latch (2) →
//	{attMu | dptMu | wplMu | allocMu | scrubMu | decMu | state mu} (3) →
//	wal/store internals
//
// Latches are recognized structurally, so the fixtures exercise the same
// code paths as the real server:
//
//   - a sync.RWMutex field named "gate"            → level 1
//   - buffer.Sharded.Lock / *buffer.PoolShard      → level 2 (shard)
//   - the sync.Mutex fields in leafNames           → level 3 (leaf)
//   - the "mu" field of the leafMuTypes: state held briefly with nothing
//     nested inside, so it sits at leaf level
//   - ckptMu: checkpointFuzzy takes it BEFORE entering the gate, so it gets
//     its own outermost level above the gate
//   - a module function named "enter" returning func() acquires the gate;
//     calling the returned value releases it (the server's enter/exit pair)
//
// wal/store internal mutexes are innermost by construction and unmodeled.
//
// Which latches are held at a point of a function body is one may-dataflow
// over the body's CFG — a latch held on some path into the point is held —
// whose transfer is step, the one held-latch step latch-io runs too. A
// TryLock in an if condition holds its latch only on the edge where it
// succeeded (branch). latch-order keeps only its checks: an acquisition
// below a held level, of the gate or a leaf already held, or of a second
// shard latch (one a loop keeps across its back edge included) is a
// diagnostic; so is a call to a module function whose footprint — the latch
// levels it or its callees may acquire, propagated to a fixed point over
// the module's call graph — does the same against the held set. A function
// carrying //qslint:allow latch-order (buffer.lockAll, the quiesced
// multi-shard path) is skipped and its footprint treated as vouched for.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LatchOrder is the §S9 latch partial-order analyzer.
type LatchOrder struct{}

func (LatchOrder) Name() string { return "latch-order" }
func (LatchOrder) Doc() string {
	return "latch acquisition order must follow gate → one shard latch → leaf mutexes (DESIGN.md §S9)"
}

const (
	levelOuter = iota // coordination mutex held across the gate (ckptMu)
	levelGate
	levelShard
	levelLeaf
	numLevels
)

var levelName = [numLevels]string{"checkpoint coordination mutex", "session gate", "shard latch", "leaf mutex"}

var leafNames = map[string]bool{
	"attMu": true, "dptMu": true, "wplMu": true, "allocMu": true,
	// scrubMu guards only the scrub cursor and is held with nothing else —
	// leaf is its natural (most restrictive) slot.
	"scrubMu": true,
	// decMu guards the 2PC coordinator's decided-transaction table; it nests
	// inside attMu on the logDecision/Forget paths, and leaf mutexes are
	// unordered among themselves, so leaf is its slot too.
	"decMu": true,
}

// outerNames are coordination mutexes acquired BEFORE the session gate and
// held across it: checkpointFuzzy takes ckptMu, then enter()s the gate, then
// descends through shard latches. Anything already holding the gate (or
// below) must not acquire them.
var outerNames = map[string]bool{"ckptMu": true}

// leafMuTypes are module types whose "mu" field is a leaf-level state
// mutex: the repl primary/standby state, the archiver drain lock, and the
// shard router's membership table (held only around map bookkeeping, never
// across a Backend call — leaf is the slot that enforces exactly that).
var leafMuTypes = [][2]string{
	{"internal/repl", "Primary"},
	{"internal/repl", "Standby"},
	{"internal/archive", "Archiver"},
	{"internal/shard", "Router"},
}

// event classifies one call expression.
type event struct {
	kind  int // evNone..evCall
	level int
	name  string
	fn    *types.Func // evCall
	pos   token.Pos
}

func (e event) acquires() bool {
	return e.kind == evAcquire || e.kind == evTryAcquire || e.kind == evShardLock || e.kind == evEnter
}

const (
	evNone = iota
	evAcquire
	evTryAcquire
	evRelease
	evShardLock // Sharded.Lock(pid) → *PoolShard; handle bound by assignment
	evEnter     // enter() idiom: acquires gate, returns the releaser
	evCall      // call to another module function (footprint check)
)

type latchChecker struct {
	latchClassifier
	report Reporter
	sums   *summaries
	foot   map[*types.Func]uint32 // 1<<level may be acquired by fn or its callees
}

func (LatchOrder) Check(m *Module, pkgs []*Package, report Reporter) {
	c := &latchChecker{latchClassifier: latchClassifier{m: m}, report: report}

	// Per-function direct latch footprints, propagated over the call graph
	// by the shared summary layer (handles recursion).
	c.sums = collectFuncs(m, pkgs, "latch-order", false)
	seed := make(map[*types.Func]uint32, len(c.sums.funcs))
	for _, obj := range c.sums.order {
		mf := c.sums.funcs[obj]
		if mf.Allowed {
			continue
		}
		c.pkg = mf.Pkg
		var bits uint32
		ast.Inspect(mf.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if ev := c.classify(call); ev.acquires() {
					bits |= 1 << ev.level
				}
			}
			return true
		})
		seed[obj] = bits
	}
	c.foot = c.sums.propagateMay(seed)

	for _, obj := range c.sums.order {
		mf := c.sums.funcs[obj]
		if mf.Allowed {
			continue
		}
		c.pkg = mf.Pkg
		c.runHeld(mf, c.check)
	}
}

// check judges one event against the latches held before it.
func (c *latchChecker) check(_ ast.Node, ev event, fact heldSet) {
	switch {
	case ev.acquires():
		c.acquire(ev, fact)
	case ev.kind == evCall:
		c.checkFootprint(ev, fact)
	}
}

func (c *latchChecker) line(p token.Pos) int { return c.m.Fset.Position(p).Line }

// acquire checks a new latch against everything held.
func (c *latchChecker) acquire(ev event, fact heldSet) {
	for _, h := range fact {
		switch {
		case ev.level == levelShard && h.level == levelShard:
			c.report(c.pkg, ev.pos, "second shard latch acquired while holding one (line %d); never hold two shard latches outside the quiesced index-order path (DESIGN.md §S9)",
				c.line(h.pos))
		case h.name == ev.name && h.level == ev.level:
			c.report(c.pkg, ev.pos, "%s already held (acquired at line %d; the quiesce gate and leaf mutexes are not reentrant)",
				h.name, c.line(h.pos))
		case h.level > ev.level:
			c.report(c.pkg, ev.pos, "%s (%s) acquired while holding %s (%s, line %d): inverts the §S9 latch order gate → shard → leaf",
				ev.name, levelName[ev.level], h.name, levelName[h.level], c.line(h.pos))
		case ev.level == levelGate && h.level == levelGate:
			c.report(c.pkg, ev.pos, "session gate acquired while already holding it (line %d): the gate is not reentrant", c.line(h.pos))
		}
	}
}

// checkFootprint validates a call to a module function against the held set.
func (c *latchChecker) checkFootprint(ev event, fact heldSet) {
	mf := c.sums.funcs[ev.fn]
	foot := c.foot[ev.fn]
	if mf == nil || mf.Allowed || foot == 0 {
		return
	}
	for lvl := 0; lvl < numLevels; lvl++ {
		if foot&(1<<lvl) == 0 {
			continue
		}
		for _, h := range fact {
			switch {
			case lvl == levelShard && h.level == levelShard:
				c.report(c.pkg, ev.pos, "call to %s, which acquires a shard latch, while already holding shard latch %s (line %d)",
					ev.fn.Name(), h.name, c.line(h.pos))
			case lvl == levelGate && h.level == levelGate:
				c.report(c.pkg, ev.pos, "call to %s, which acquires the session gate, while already holding it (line %d): the gate is not reentrant",
					ev.fn.Name(), c.line(h.pos))
			case h.level > lvl:
				c.report(c.pkg, ev.pos, "call to %s, which acquires a %s, while holding %s (%s, line %d): inverts the §S9 latch order",
					ev.fn.Name(), levelName[lvl], h.name, levelName[h.level], c.line(h.pos))
			}
		}
	}
}

// --- classification ---------------------------------------------------------

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func isNamedType(t types.Type, pkgPath, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// latchClassifier is the structural latch recognizer and the held-latch
// step, shared by latch-order and latch-io, applied per package under
// analysis.
type latchClassifier struct {
	m   *Module
	pkg *Package // package currently under analysis
}

func (c *latchClassifier) bufferPath() string { return c.m.Path + "/internal/buffer" }

// isLeafStateMu reports whether fx is the "mu" field of one of the
// leafMuTypes.
func (c *latchClassifier) isLeafStateMu(fx *ast.SelectorExpr) bool {
	if fx.Sel.Name != "mu" {
		return false
	}
	tv, ok := c.pkg.Info.Types[fx.X]
	if !ok {
		return false
	}
	for _, lt := range leafMuTypes {
		if isNamedType(tv.Type, c.m.Path+"/"+lt[0], lt[1]) {
			return true
		}
	}
	return false
}

// classify maps a call expression to a latch event.
func (c *latchClassifier) classify(call *ast.CallExpr) event {
	pos := call.Pos()
	var obj *types.Func
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj, _ = c.pkg.Info.Uses[fn.Sel].(*types.Func)
		if ev, ok := c.latchMethod(fn); ok {
			ev.pos = pos
			return ev
		}
	case *ast.Ident:
		obj, _ = c.pkg.Info.Uses[fn].(*types.Func)
	}
	if obj != nil && inModule(c.m, obj.Pkg()) {
		if obj.Name() == "enter" && returnsReleaser(obj) {
			return event{kind: evEnter, level: levelGate, name: "gate (via enter)", pos: pos}
		}
		return event{kind: evCall, fn: obj, pos: pos}
	}
	return event{kind: evNone}
}

// latchMethod recognizes Lock/TryLock/Unlock (and the R forms) on a latch.
func (c *latchClassifier) latchMethod(sel *ast.SelectorExpr) (event, bool) {
	method := sel.Sel.Name
	switch method {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return event{}, false
	}
	recvTV, ok := c.pkg.Info.Types[sel.X]
	if !ok {
		return event{}, false
	}
	rt := recvTV.Type
	level := -1
	switch {
	case isNamedType(rt, c.bufferPath(), "Sharded"):
		return event{kind: evShardLock, level: levelShard}, method == "Lock"
	case isNamedType(rt, c.bufferPath(), "PoolShard"):
		level = levelShard
	default:
		// Field-named sync mutexes: the receiver must itself be a field
		// selector (s.gate, q.attMu, ...).
		fx, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return event{}, false
		}
		ts := deref(rt).String()
		switch field := fx.Sel.Name; {
		case field == "gate" && ts == "sync.RWMutex":
			level = levelGate
		case outerNames[field] && ts == "sync.Mutex":
			level = levelOuter
		case leafNames[field] && ts == "sync.Mutex":
			level = levelLeaf
		case ts == "sync.Mutex" && c.isLeafStateMu(fx):
			level = levelLeaf
		default:
			return event{}, false
		}
	}
	ev := event{kind: evAcquire, level: level, name: types.ExprString(sel.X)}
	switch method {
	case "Unlock", "RUnlock":
		ev.kind = evRelease
	case "TryLock", "TryRLock":
		ev.kind = evTryAcquire
	}
	return ev, true
}

// returnsReleaser reports whether fn's signature is func(...) func().
func returnsReleaser(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	res, ok := sig.Results().At(0).Type().Underlying().(*types.Signature)
	return ok && res.Params().Len() == 0 && res.Results().Len() == 0
}

// --- the held-latch step ----------------------------------------------------

// held is one latch that may be held.
type held struct {
	level int
	name  string // source expression ("s.gate", "s.attMu"), shard handle var, or "gate (via enter)"
	pos   token.Pos
	exit  string // the enter() gate's bound releaser variable, if any
}

// heldSet is the may-held latch set: small, so a slice beats a map.
type heldSet []held

func (h heldSet) has(name string, level int) bool {
	for _, x := range h {
		if x.name == name && x.level == level {
			return true
		}
	}
	return false
}

func (h heldSet) without(name string, level int) heldSet {
	out := h[:0:0]
	for _, x := range h {
		if x.name != name || x.level != level {
			out = append(out, x)
		}
	}
	return out
}

func (h heldSet) anyAt(level int) *held {
	for i := range h {
		if h[i].level == level {
			return &h[i]
		}
	}
	return nil
}

// checkFn judges one node against the latches held just before it: a call
// (with its latch event), a channel send or receive, or a select.
type checkFn func(n ast.Node, ev event, fact heldSet)

// runHeld runs the held-latch dataflow over mf — its declaration and, from
// an empty set, each function literal inside it — and, once the facts are
// fixed, hands check every node step visits.
func (c *latchClassifier) runHeld(mf *moduleFunc, check checkFn) {
	fl := flow[heldSet]{
		bottom: func() heldSet { return nil },
		clone:  func(h heldSet) heldSet { return append(heldSet(nil), h...) },
		merge: func(dst, src heldSet) (heldSet, bool) {
			changed := false
			for _, h := range src {
				if !dst.has(h.name, h.level) {
					dst = append(dst, h)
					changed = true
				}
			}
			return dst, changed
		},
		branch: c.branch,
		transfer: func(n ast.Node, fact heldSet, rep bool) heldSet {
			if rep {
				return c.step(n, fact, check)
			}
			return c.step(n, fact, nil)
		},
	}
	for _, body := range funcBodies(mf.Decl.Body) {
		cfg := buildCFG(body)
		replayFlow(cfg, fl, runFlow(cfg, fl))
	}
}

// branch refines an if's outgoing edge: where the condition is a TryLock
// (or its negation) that failed on this edge, the latch is not held.
func (c *latchClassifier) branch(cond ast.Expr, fact heldSet, taken bool) heldSet {
	failed := !taken
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond, failed = u.X, taken
	}
	if call, ok := cond.(*ast.CallExpr); ok && failed {
		if ev := c.classify(call); ev.kind == evTryAcquire {
			return fact.without(ev.name, ev.level)
		}
	}
	return fact
}

// step is the held-latch transfer over one CFG node: it applies the latch
// effect of every call the node evaluates, in order, and, when check is
// non-nil, hands check each call, channel operation and select with the set
// held just before it.
//
//   - Lock acquires, Unlock releases; TryLock acquires as if it succeeded
//     (branch drops it on the edge where it failed);
//   - `sh := pool.Lock(pid)` names the shard latch by its handle;
//   - enter() acquires the gate, `exit := x.enter()` binds its releaser, and
//     exit() releases it;
//   - `defer x.enter()()` runs the inner call now; any other deferred call
//     runs after this body's releases and is skipped;
//   - a go statement evaluates only its arguments here, and a function
//     literal is a body of its own (funcBodies) that starts from an empty set.
func (c *latchClassifier) step(n ast.Node, fact heldSet, check checkFn) heldSet {
	bind := ""
	switch x := n.(type) {
	case *ast.SelectStmt:
		// The clause bodies are blocks of their own; the node is the
		// blocking decision.
		if check != nil {
			check(x, event{}, fact)
		}
		return fact
	case *ast.SendStmt:
		if check != nil {
			check(x, event{}, fact)
		}
	case *ast.DeferStmt:
		inner, ok := x.Call.Fun.(*ast.CallExpr)
		if !ok {
			return fact
		}
		n = inner
	case *ast.GoStmt:
		for _, a := range x.Call.Args {
			fact = c.step(a, fact, check)
		}
		return fact
	case *ast.AssignStmt:
		if id, ok := x.Lhs[0].(*ast.Ident); ok && len(x.Lhs) == 1 && len(x.Rhs) == 1 {
			bind = id.Name
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok && len(gd.Specs) == 1 {
			if vs, ok := gd.Specs[0].(*ast.ValueSpec); ok && len(vs.Names) == 1 && len(vs.Values) == 1 {
				bind = vs.Names[0].Name
			}
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && check != nil {
				check(x, event{}, fact)
			}
		case *ast.CallExpr:
			fact = c.apply(x, fact, bind, check)
		}
		return true
	})
	return fact
}

// apply is step for one call; bind names the variable the node assigns.
func (c *latchClassifier) apply(call *ast.CallExpr, fact heldSet, bind string, check checkFn) heldSet {
	if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) == 0 {
		for _, h := range fact {
			if h.exit == id.Name {
				return fact.without(h.name, h.level)
			}
		}
	}
	ev := c.classify(call)
	if ev.kind == evShardLock {
		ev.name = bind
		if bind == "" {
			ev.name = "(unbound shard latch)"
		}
	}
	if check != nil {
		check(call, ev, fact)
	}
	switch {
	case ev.acquires() && !fact.has(ev.name, ev.level):
		h := held{level: ev.level, name: ev.name, pos: ev.pos}
		if ev.kind == evEnter {
			h.exit = bind
		}
		fact = append(fact, h)
	case ev.kind == evRelease:
		fact = fact.without(ev.name, ev.level)
	}
	return fact
}
