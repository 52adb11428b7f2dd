package lint

// error-discipline: an error from the stable-storage layer — the WAL, a
// disk.Store, the archiver — is a durability event, not a nuisance. Silently
// discarding one (a bare call statement) turns "the log append failed" into
// "the transaction committed anyway", exactly the failure class the crash
// sweeps exist to rule out. A deliberate discard must be explicit: assign to
// `_` or carry a //qslint:allow error-discipline annotation with a reason.
// Close is exempt (idiomatic in teardown paths).

import (
	"go/ast"
	"go/types"
)

// ErrCheck is the discarded-stable-storage-error analyzer.
type ErrCheck struct{}

func (ErrCheck) Name() string { return "error-discipline" }
func (ErrCheck) Doc() string {
	return "error returns from wal.*, disk.Store.* and archive.* calls must not be silently discarded"
}

func isErrType(t types.Type) bool { return t != nil && t.String() == "error" }

func hasErrResult(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func (ErrCheck) Check(m *Module, pkgs []*Package, report Reporter) {
	store := storeInterface(m)
	var storeMethods []string
	if store != nil {
		for i := 0; i < store.NumMethods(); i++ {
			storeMethods = append(storeMethods, store.Method(i).Name())
		}
	}
	archivePath := m.Path + "/internal/archive"

	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || pkg.FuncAllowed("error-discipline", fd) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					es, ok := n.(*ast.ExprStmt)
					if !ok {
						return true
					}
					call, ok := es.X.(*ast.CallExpr)
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
					sig, ok := obj.Type().(*types.Signature)
					if !ok || !hasErrResult(sig) || obj.Name() == "Close" {
						return true
					}
					what := ""
					switch {
					case walCall(m, pkg, call, obj.Name()):
						what = "wal.Log." + obj.Name()
					case storeCall(pkg, store, call, storeMethods...):
						what = "disk.Store." + obj.Name()
					case obj.Pkg() != nil && obj.Pkg().Path() == archivePath:
						what = "archive." + obj.Name()
					default:
						return true
					}
					report(pkg, call.Pos(), "error return of %s discarded: a stable-storage failure here is a durability event — handle it, or discard explicitly with `_ =` and a //qslint:allow error-discipline: <reason>", what)
					return true
				})
			}
		}
	}
}
