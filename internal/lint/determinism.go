package lint

// determinism: crash-point sweeps replay the same workload twice (crash +
// restart vs. undisturbed) and diff the results byte-for-byte, so every
// package on that path must be a pure function of the seed. Three sources of
// nondeterminism are fenced out of the sweep-critical packages:
//
//   - wall-clock reads (time.Now / Since / Until): a timestamp that reaches a
//     log record or report changes across runs;
//   - math/rand: its stream is not guaranteed stable across Go releases
//     (workload generators that need randomness keep an explicitly seeded
//     source in a package outside this scope, e.g. internal/oo7);
//   - ranging over a map while emitting — printing, appending log records, or
//     writing pages inside the loop body — since Go randomizes map iteration
//     order per run.
//
// Legitimate wall-clock uses (the lock manager's deadlock deadline, bench
// timers) carry //qslint:allow determinism: <reason> annotations.

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Determinism is the sweep-reproducibility analyzer.
type Determinism struct{}

func (Determinism) Name() string { return "determinism" }
func (Determinism) Doc() string {
	return "no wall clock, math/rand, or map-order-dependent output in sweep-critical packages"
}

var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func (Determinism) Check(m *Module, pkgs []*Package, report Reporter) {
	checked := []string{
		m.Path + "/internal/harness",
		m.Path + "/internal/logrec",
		m.Path + "/internal/diff",
		m.Path + "/internal/server",
		m.Path + "/internal/wal",
		m.Path + "/internal/recbuf",
		m.Path + "/internal/lock",
		m.Path + "/internal/archive",
		m.Path + "/internal/repl",
		m.Path + "/internal/wire",
		m.Path + "/cmd",
	}
	store := storeInterface(m)
	serverPath := m.Path + "/internal/server"

	// emits reports whether the loop body observable-effects depend on
	// iteration order: formatting, log appends, server session calls, or
	// store writes inside the body.
	emits := func(pkg *Package, body *ast.BlockStmt) (ast.Node, bool) {
		var at ast.Node
		ast.Inspect(body, func(n ast.Node) bool {
			if at != nil {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
			if obj == nil {
				return true
			}
			opkg := obj.Pkg()
			switch {
			case opkg != nil && opkg.Path() == "fmt":
				at = call
			case walCall(m, pkg, call, obj.Name()):
				at = call
			case storeCall(pkg, store, call, obj.Name()):
				at = call
			case opkg != nil && opkg.Path() == serverPath && obj.Type().(*types.Signature).Recv() != nil:
				at = call
			}
			return at == nil
		})
		return at, at != nil
	}

	for _, pkg := range pkgs {
		if !pathIn(pkg.Path, checked) {
			continue
		}
		for _, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if path == "math/rand" || path == "math/rand/v2" {
					report(pkg, imp.Pos(), "math/rand imported in sweep-critical package %s: its stream is not stable across Go releases; keep seeded randomness outside the replayed path", pkg.Path)
				}
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || pkg.FuncAllowed("determinism", fd) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.CallExpr:
						sel, ok := x.Fun.(*ast.SelectorExpr)
						if !ok {
							return true
						}
						obj, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
						if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" && clockFuncs[obj.Name()] {
							report(pkg, x.Pos(), "wall-clock read time.%s in sweep-critical package %s: replayed runs must not observe real time (//qslint:allow determinism: <reason> if this provably never feeds logged or diffed state)",
								obj.Name(), pkg.Path)
						}
					case *ast.RangeStmt:
						tv, ok := pkg.Info.Types[x.X]
						if !ok {
							return true
						}
						if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
							return true
						}
						if at, bad := emits(pkg, x.Body); bad {
							report(pkg, x.For, "map iteration feeds output, log records, or page writes (line %d): Go randomizes map order per run — collect and sort the keys first",
								m.Fset.Position(at.Pos()).Line)
						}
					}
					return true
				})
			}
		}
	}
}
