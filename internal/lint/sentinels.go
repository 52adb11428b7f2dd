package lint

// sentinel-errors: the repo's typed sentinels (wal.ErrTruncated,
// repl.ErrGap, disk.ErrCorruptPage, page.ErrPageFull, ...) cross layers
// wrapped in fmt.Errorf("...: %w", err) context — the replication fetch
// path wraps ErrGap, recovery wraps ErrTorn, the checksummed store wraps
// ErrCorruptPage. A wrapped sentinel never compares equal with ==, so an
// identity test that happens to work today silently stops matching the
// day a caller adds context. Hence:
//
//   - err == pkg.ErrX / err != pkg.ErrX on a module sentinel → errors.Is;
//   - switch err { case pkg.ErrX: } — the same identity test in switch
//     clothing → errors.Is chain;
//   - string matching (strings.Contains(err.Error(), ...) or comparing
//     .Error() output) → errors.Is/As against the sentinel itself;
//   - err.(*SomeError) type assertions → errors.As, which unwraps.
//
// A "module sentinel" is a package-level error-typed var named Err* in
// this module. Stdlib sentinels (io.EOF et al.) are deliberately out of
// scope: io.EOF from a direct Read is the documented unwrapped contract.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Sentinels is the sentinel-error comparison analyzer.
type Sentinels struct{}

func (Sentinels) Name() string { return "sentinel-errors" }
func (Sentinels) Doc() string {
	return "module error sentinels must be tested with errors.Is/As: == breaks the moment a caller wraps the error"
}

var errType = types.Universe.Lookup("error").Type()

type sentinelChecker struct {
	m      *Module
	pkg    *Package
	report Reporter
}

func (Sentinels) Check(m *Module, pkgs []*Package, report Reporter) {
	c := &sentinelChecker{m: m, report: report}
	sums := collectFuncs(m, pkgs, "sentinel-errors", false)
	for _, obj := range sums.order {
		mf := sums.funcs[obj]
		if mf.Allowed {
			continue
		}
		c.pkg = mf.Pkg
		ast.Inspect(mf.Decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				c.checkBinary(x)
			case *ast.SwitchStmt:
				c.checkSwitch(x)
			case *ast.CallExpr:
				c.checkStringMatch(x)
			case *ast.TypeAssertExpr:
				c.checkAssert(x)
			}
			return true
		})
	}
}

func (c *sentinelChecker) checkBinary(b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{b.X, b.Y} {
		if v := c.sentinelVar(side); v != nil {
			c.report(c.pkg, b.Pos(), "%s.%s compared with %s: a wrapped sentinel never matches by identity — use errors.Is",
				v.Pkg().Name(), v.Name(), b.Op)
			return
		}
		if c.isErrorString(side) {
			c.report(c.pkg, b.Pos(), "comparing .Error() strings: error text is not an API — use errors.Is against the sentinel")
			return
		}
	}
}

// checkSwitch flags `switch err { case pkg.ErrX: }`: == by another name.
func (c *sentinelChecker) checkSwitch(s *ast.SwitchStmt) {
	if s.Tag == nil {
		return
	}
	tv, ok := c.pkg.Info.Types[s.Tag]
	if !ok || !types.AssignableTo(tv.Type, errType) {
		return
	}
	for _, cc := range s.Body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range clause.List {
			if v := c.sentinelVar(e); v != nil {
				c.report(c.pkg, e.Pos(), "switch on an error with case %s.%s: case comparison is ==, which a wrapped sentinel never matches — use an errors.Is chain",
					v.Pkg().Name(), v.Name())
			}
		}
	}
}

// checkStringMatch flags strings.* matching over .Error() output.
func (c *sentinelChecker) checkStringMatch(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold", "Index":
	default:
		return
	}
	obj := c.pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "strings" {
		return
	}
	for _, arg := range call.Args {
		if c.isErrorString(arg) {
			c.report(c.pkg, call.Pos(), "strings.%s over .Error() output: error text is not an API — use errors.Is/As against the sentinel",
				sel.Sel.Name)
			return
		}
	}
}

// checkAssert flags err.(*ConcreteError): errors.As unwraps, a type
// assertion does not.
func (c *sentinelChecker) checkAssert(a *ast.TypeAssertExpr) {
	if a.Type == nil {
		return // type switch headers are handled as their own idiom
	}
	tv, ok := c.pkg.Info.Types[a.X]
	if !ok || !types.Identical(tv.Type, errType) {
		return
	}
	c.report(c.pkg, a.Pos(), "type assertion on an error value: a wrapped error hides its concrete type — use errors.As")
}

// sentinelVar resolves e to a module-level error sentinel (var Err* of
// type error at package scope, declared in this module).
func (c *sentinelChecker) sentinelVar(e ast.Expr) *types.Var {
	var obj types.Object
	switch x := e.(type) {
	case *ast.Ident:
		obj = c.pkg.Info.Uses[x]
	case *ast.SelectorExpr:
		obj = c.pkg.Info.Uses[x.Sel]
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !types.AssignableTo(v.Type(), errType) {
		return nil
	}
	if !inModule(c.m, v.Pkg()) {
		return nil
	}
	return v
}

// isErrorString reports whether e is a call to .Error() on an error value.
func (c *sentinelChecker) isErrorString(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	tv, ok := c.pkg.Info.Types[sel.X]
	return ok && types.AssignableTo(tv.Type, errType)
}
