// Package lint is qslint: a from-scratch static analyzer (stdlib go/parser +
// go/types only, no x/tools) that enforces the project invariants every
// crash-point, group-commit and media sweep depends on (DESIGN.md §11):
//
//   - latch-order: the §S9 latch partial order — ckptMu → session gate →
//     one buffer shard latch → leaf mutexes → wal/store internals — is
//     modeled as a level graph and every acquisition, including those made
//     by callees, is checked against the latches held on some path to it.
//   - wal-discipline: only the storage-protocol packages may write pages to
//     a disk.Store or mutate server pool frames, and within a function a
//     page write must never precede a wal.Append without a prior log force
//     (the write-ahead rule).
//   - determinism: sweep-critical packages must not read the wall clock,
//     import math/rand, or iterate maps in nondeterministic order while
//     feeding output, log records or store writes.
//   - error-discipline: error returns from wal.*, disk.Store.* and
//     archive.* calls must not be silently discarded.
//   - force-before-ack, latch-io, goroutine-lifecycle, sentinel-errors:
//     path-sensitive protocol checks.
//
// Every path question is answered the same way: a dataflow (dataflow.go)
// over one control-flow graph per function body (cfg.go).
//
// A legitimate exception carries an annotation that must state a reason:
//
//	//qslint:allow determinism: lock deadline is a real timeout, not replayed
//
// placed either in a function's doc comment (suppresses the whole function;
// latch-order additionally treats the function's lock footprint as vouched
// for) or on/above the offending line. An annotation without a reason is
// itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding, locatable and machine-readable (qslint -json).
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // module-root-relative
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Reporter records findings for one analyzer run.
type Reporter func(pkg *Package, pos token.Pos, format string, args ...any)

// Analyzer is one invariant checker. Check sees every loaded package at once
// so interprocedural passes (latch-order footprints) can cross package
// boundaries.
type Analyzer interface {
	Name() string
	Doc() string
	Check(m *Module, pkgs []*Package, report Reporter)
}

// All returns the full analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		LatchOrder{},
		WALDiscipline{},
		Determinism{},
		ErrCheck{},
		ForceAck{},
		LatchIO{},
		Goroutines{},
		Sentinels{},
	}
}

// --- allow directives -------------------------------------------------------

var allowRe = regexp.MustCompile(`^//qslint:allow\s+([a-z-]+)\s*(?::\s*(.*))?$`)

// allowDirective is one parsed //qslint:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	file     string
	line     int       // the directive's own line
	fnBody   [2]int    // [start line, end line] when attached to a func decl
	pos      token.Pos // for the missing-reason diagnostic
}

// collectAllows parses every //qslint:allow directive in the package,
// resolving function-doc directives to the whole function's line range.
func (p *Package) collectAllows() []allowDirective {
	if p.allowsDone {
		return p.allows
	}
	p.allowsDone = true
	// Map comment position → enclosing func decl doc, so a directive in a doc
	// comment covers the function body.
	docOf := make(map[*ast.CommentGroup]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				docOf[fd.Doc] = fd
			}
		}
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			fd := docOf[cg]
			for _, c := range cg.List {
				mm := allowRe.FindStringSubmatch(c.Text)
				if mm == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				d := allowDirective{
					analyzer: mm[1],
					reason:   strings.TrimSpace(mm[2]),
					file:     pos.Filename,
					line:     pos.Line,
					pos:      c.Pos(),
				}
				if fd != nil {
					d.fnBody = [2]int{p.Fset.Position(fd.Pos()).Line, p.Fset.Position(fd.End()).Line}
				}
				p.allows = append(p.allows, d)
			}
		}
	}
	return p.allows
}

// FuncAllowed reports whether fn carries a doc-comment allow directive (with
// a reason — a reasonless directive suppresses nothing) for the named
// analyzer. Latch-order uses it to treat the function's footprint as vouched
// for.
func (p *Package) FuncAllowed(analyzer string, fn *ast.FuncDecl) bool {
	if fn == nil || fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		mm := allowRe.FindStringSubmatch(c.Text)
		if mm != nil && mm[1] == analyzer && strings.TrimSpace(mm[2]) != "" {
			return true
		}
	}
	return false
}

// suppressed reports whether d is covered by an allow directive: same
// analyzer and either inside an annotated function or on the directive's own
// or following line.
func suppressed(d Diagnostic, file string, line int, allows []allowDirective) bool {
	for _, a := range allows {
		if a.analyzer != d.Analyzer || a.file != file {
			continue
		}
		if a.fnBody[1] != 0 && line >= a.fnBody[0] && line <= a.fnBody[1] {
			return true
		}
		if line == a.line || line == a.line+1 {
			return true
		}
	}
	return false
}

// --- runner -----------------------------------------------------------------

// Run executes the analyzers over pkgs and returns the unsuppressed
// diagnostics sorted by position. Allow directives missing a reason are
// reported under the "qslint" pseudo-analyzer.
func Run(m *Module, pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	type raw struct {
		d    Diagnostic
		file string // absolute, for directive matching
	}
	var out []raw
	relFile := func(abs string) string {
		if rel, err := filepath.Rel(m.Root, abs); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return abs
	}
	for _, a := range analyzers {
		name := a.Name()
		a.Check(m, pkgs, func(pkg *Package, pos token.Pos, format string, args ...any) {
			p := m.Fset.Position(pos)
			out = append(out, raw{
				d: Diagnostic{
					Analyzer: name,
					File:     relFile(p.Filename),
					Line:     p.Line,
					Col:      p.Column,
					Message:  fmt.Sprintf(format, args...),
				},
				file: p.Filename,
			})
		})
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range pkg.collectAllows() {
			if a.reason == "" {
				p := m.Fset.Position(a.pos)
				diags = append(diags, Diagnostic{
					Analyzer: "qslint",
					File:     relFile(p.Filename),
					Line:     p.Line,
					Col:      p.Column,
					Message:  fmt.Sprintf("//qslint:allow %s needs a reason (\"//qslint:allow %s: why\")", a.analyzer, a.analyzer),
				})
			}
		}
	}
	allowsByFile := make(map[string][]allowDirective)
	for _, pkg := range pkgs {
		for _, a := range pkg.collectAllows() {
			if a.reason != "" {
				allowsByFile[a.file] = append(allowsByFile[a.file], a)
			}
		}
	}
	for _, r := range out {
		if suppressed(r.d, r.file, r.d.Line, allowsByFile[r.file]) {
			continue
		}
		diags = append(diags, r.d)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// --- shared type helpers ----------------------------------------------------

// namedIn reports whether t (after pointer deref) is a named type with the
// given name defined in the package with import path pkgPath.
func namedIn(t fmt.Stringer, pkgPath, name string) bool {
	s := t.String()
	return s == pkgPath+"."+name || s == "*"+pkgPath+"."+name
}

// pathIn reports whether import path p equals one of the prefixes or lives
// below one of them.
func pathIn(p string, prefixes []string) bool {
	for _, pre := range prefixes {
		if p == pre || strings.HasPrefix(p, pre+"/") {
			return true
		}
	}
	return false
}

// inModule reports whether pkg belongs to the module under analysis.
func inModule(m *Module, pkg *types.Package) bool {
	return pkg != nil && pathIn(pkg.Path(), []string{m.Path})
}

// walAppends are the wal.Log methods that append records: one record, or a
// transaction's run of them.
var walAppends = []string{"Append", "AppendRun"}

// walCall reports whether call invokes one of the named methods of wal.Log.
func walCall(m *Module, pkg *Package, call *ast.CallExpr, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !slices.Contains(names, sel.Sel.Name) {
		return false
	}
	obj, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
	if obj == nil {
		return false
	}
	recv := obj.Type().(*types.Signature).Recv()
	return recv != nil && isNamedType(recv.Type(), m.Path+"/internal/wal", "Log")
}

// deviceSync reports whether call is Sync through a wal.Device: the log's
// stable write, which waits on the disk as a force does.
func deviceSync(m *Module, pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sync" {
		return false
	}
	tv, ok := pkg.Info.Types[sel.X]
	return ok && isNamedType(tv.Type, m.Path+"/internal/wal", "Device")
}

// storeInterface resolves disk.Store so implementors can be recognized
// structurally (MemStore, FileStore, fault-injecting wrappers, fixtures).
func storeInterface(m *Module) *types.Interface {
	pkg, err := m.Load(m.Path + "/internal/disk")
	if err != nil {
		return nil
	}
	obj := pkg.Types.Scope().Lookup("Store")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// storeCall reports whether call invokes one of the named methods on a
// disk.Store implementor — the interface itself or any type that satisfies
// it, wherever that type is declared.
func storeCall(pkg *Package, store *types.Interface, call *ast.CallExpr, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || store == nil || !slices.Contains(names, sel.Sel.Name) {
		return false
	}
	tv, ok := pkg.Info.Types[sel.X]
	return ok && (types.Implements(tv.Type, store) || types.Implements(types.NewPointer(tv.Type), store))
}
