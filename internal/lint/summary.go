package lint

// The interprocedural summary layer (DESIGN.md §11). latch-order needs
// "what may this callee acquire?" answered across the whole module;
// force-before-ack needs "does this callee force the log on every path?",
// and latch-io needs "may this callee force or block?". All three are the
// same shape: a per-function bitmask summary,
// seeded from each body and propagated over the module call graph to a
// fixed point. This file owns that shape — function collection, call-graph
// edges, CFG caching, and the two propagation modes:
//
//   - may-bits (union): if a callee MAY do X, so may its callers. Monotone
//     union over call edges; handles recursion by fixpoint.
//   - must-bits (all-paths): a function HAS property X only if every path
//     from entry to exit establishes it. These need the CFG per function,
//     so propagation re-runs each function's dataflow with the current
//     must-set until the set stops growing (also monotone: a growing set
//     only adds establishing events).
//
// Functions vouched for by a //qslint:allow <analyzer> doc directive are
// excluded from propagation — their effects are the annotation's problem.

import (
	"go/ast"
	"go/types"
)

// moduleFunc is one function declaration under analysis.
type moduleFunc struct {
	Pkg     *Package
	Decl    *ast.FuncDecl
	Obj     *types.Func
	Allowed bool // doc-comment allow directive for the owning analyzer
	Callees []*types.Func

	cfg *CFG // lazily built
}

// summaries indexes every function in the loaded packages for one analyzer.
type summaries struct {
	m     *Module
	funcs map[*types.Func]*moduleFunc
	order []*types.Func // deterministic (package, file, decl) order
}

// collectFuncs gathers every declared function with a body, its allow
// status for the named analyzer, and its module-internal call edges.
// Test files are skipped unless includeTests (the production protocol is
// what summaries describe).
func collectFuncs(m *Module, pkgs []*Package, analyzer string, includeTests bool) *summaries {
	s := &summaries{m: m, funcs: make(map[*types.Func]*moduleFunc)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			if !includeTests && pkg.IsTestFile(file) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				mf := &moduleFunc{
					Pkg:     pkg,
					Decl:    fd,
					Obj:     obj,
					Allowed: pkg.FuncAllowed(analyzer, fd),
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := resolveModuleCall(m, pkg, call); callee != nil {
						mf.Callees = append(mf.Callees, callee)
					}
					return true
				})
				s.funcs[obj] = mf
				s.order = append(s.order, obj)
			}
		}
	}
	return s
}

// CFG returns (building once) the function's control-flow graph.
func (s *summaries) CFG(mf *moduleFunc) *CFG {
	if mf.cfg == nil {
		mf.cfg = buildCFG(mf.Decl.Body)
	}
	return mf.cfg
}

// propagateMay unions the seed bits over the call graph to a fixed point:
// callers inherit everything their (un-vouched) callees may do.
func (s *summaries) propagateMay(seed map[*types.Func]uint32) map[*types.Func]uint32 {
	out := make(map[*types.Func]uint32, len(s.funcs))
	for obj, bits := range seed {
		out[obj] = bits
	}
	for changed := true; changed; {
		changed = false
		for _, obj := range s.order {
			mf := s.funcs[obj]
			if mf.Allowed {
				continue
			}
			bits := out[obj]
			for _, callee := range mf.Callees {
				cf := s.funcs[callee]
				if cf == nil || cf.Allowed {
					continue
				}
				bits |= out[callee]
			}
			if bits != out[obj] {
				out[obj] = bits
				changed = true
			}
		}
	}
	return out
}

// propagateMust computes the set of functions for which establish holds on
// every entry→exit path. establishes reports whether one CFG node
// establishes the property directly; calls to functions already in the
// must-set establish it transitively. resets, if non-nil, reports nodes
// that destroy the property (e.g. a new log append after the force).
func (s *summaries) propagateMust(
	establishes func(mf *moduleFunc, n ast.Node) bool,
	resets func(mf *moduleFunc, n ast.Node) bool,
) map[*types.Func]bool {
	must := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, obj := range s.order {
			mf := s.funcs[obj]
			if must[obj] || mf.Allowed {
				continue
			}
			if s.mustHold(mf, must, establishes, resets) {
				must[obj] = true
				changed = true
			}
		}
	}
	return must
}

// mustHold runs the all-paths boolean dataflow for one function.
func (s *summaries) mustHold(
	mf *moduleFunc,
	must map[*types.Func]bool,
	establishes func(mf *moduleFunc, n ast.Node) bool,
	resets func(mf *moduleFunc, n ast.Node) bool,
) bool {
	c := s.CFG(mf)
	fl := flow[bool]{
		bottom: func() bool { return false },
		clone:  func(b bool) bool { return b },
		merge: func(dst, src bool) (bool, bool) {
			merged := dst && src
			return merged, merged != dst
		},
		transfer: func(n ast.Node, fact bool, _ bool) bool {
			if resets != nil && resets(mf, n) {
				fact = false
			}
			if establishes(mf, n) {
				return true
			}
			forEachCall(n, func(call *ast.CallExpr) {
				if callee := resolveModuleCall(s.m, mf.Pkg, call); callee != nil && must[callee] {
					fact = true
				}
			})
			return fact
		},
	}
	in := runFlow(c, fl)
	exitFact, reachable := in[c.Exit]
	return reachable && exitFact
}

// resolveModuleCall resolves a call expression to the *types.Func it
// invokes, if that function is declared in this module. Interface-method
// and function-value calls resolve to nil (no summary crosses them).
func resolveModuleCall(m *Module, pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fn.Sel]
	case *ast.Ident:
		obj = pkg.Info.Uses[fn]
	default:
		return nil
	}
	if f, ok := obj.(*types.Func); ok && inModule(m, f.Pkg()) {
		return f
	}
	return nil
}
