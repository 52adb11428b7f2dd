package lint

// Module loading: a from-scratch package loader built on the standard
// library only (go/parser + go/types + go/importer), preserving the repo's
// no-external-dependency rule. golang.org/x/tools/go/packages would do this
// in three lines; we instead resolve module-internal import paths ourselves
// (module path from go.mod plus the directory layout) and delegate
// everything else — the standard library — to the compiler-independent
// source importer, which type-checks stdlib packages from $GOROOT source.
//
// Test files (_test.go) are excluded by default: the invariants qslint
// enforces protect the production protocol paths; tests crash, reorder and
// poke stable storage on purpose. IncludeTests opts specific packages back
// in (qslint -tests does this for internal/harness, whose sweep repro
// helpers must stay deterministic like the sweeps themselves): in-package
// test files are parsed and type-checked alongside the production files,
// and analyzers consult Package.IsTestFile to decide how much of their
// rule set applies there. External test packages (package foo_test) stay
// excluded — they would need a second type-check universe.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package under analysis.
type Package struct {
	Path  string // import path ("repro/internal/server")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	allows     []allowDirective
	allowsDone bool
}

// Module is a loaded Go module: the unit qslint analyzes.
type Module struct {
	Root string // directory containing go.mod
	Path string // module path from the go.mod "module" line
	Fset *token.FileSet

	pkgs     map[string]*Package // by import path
	loading  map[string]bool     // cycle detection
	std      types.Importer      // source importer for non-module (stdlib) paths
	testPkgs map[string]bool     // import paths whose in-package _test.go files load too
}

// IncludeTests opts the given import paths into test-file loading. Must be
// called before the packages are (transitively) loaded.
func (m *Module) IncludeTests(paths ...string) {
	for _, p := range paths {
		m.testPkgs[p] = true
	}
}

// LoadModule opens the module rooted at (or above) dir.
func LoadModule(dir string) (*Module, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Module{
		Root:     root,
		Path:     modPath,
		Fset:     fset,
		pkgs:     make(map[string]*Package),
		loading:  make(map[string]bool),
		std:      importer.ForCompiler(fset, "source", nil),
		testPkgs: make(map[string]bool),
	}, nil
}

// skipDir reports whether a directory is outside the analyzed tree.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadAll loads every package in the module, in deterministic (import path)
// order.
func (m *Module) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != m.Root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var paths []string
	for _, dir := range dirs {
		if seen[dir] {
			continue
		}
		seen[dir] = true
		rel, err := filepath.Rel(m.Root, dir)
		if err != nil {
			return nil, err
		}
		ip := m.Path
		if rel != "." {
			ip = m.Path + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	var out []*Package
	for _, ip := range paths {
		pkg, err := m.Load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// Load loads (or returns the cached) package with the given module-internal
// import path.
func (m *Module) Load(importPath string) (*Package, error) {
	if pkg, ok := m.pkgs[importPath]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, m.Path), "/")
	dir := filepath.Join(m.Root, filepath.FromSlash(rel))
	return m.loadDir(dir, importPath)
}

// LoadDirAs type-checks the single package in dir under a synthetic import
// path. The lint tests use it to load fixture packages out of testdata/,
// where the go tool (deliberately) never looks. The package stays out of the
// cache: a fixture that borrows a real package's path, to fall under that
// package's rules, must not stand in for it when a later load imports it.
func (m *Module) LoadDirAs(dir, importPath string) (*Package, error) {
	prev, cached := m.pkgs[importPath]
	pkg, err := m.loadDir(dir, importPath)
	if cached {
		m.pkgs[importPath] = prev
	} else {
		delete(m.pkgs, importPath)
	}
	return pkg, err
}

func (m *Module) loadDir(dir, importPath string) (*Package, error) {
	if m.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	m.loading[importPath] = true
	defer delete(m.loading, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s (for %s): %w", dir, importPath, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	if m.testPkgs[importPath] {
		pkgName := files[0].Name.Name
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			// In-package test files only; external test packages (foo_test)
			// would need their own type-check universe.
			if f.Name.Name == pkgName {
				files = append(files, f)
			}
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	cfg := types.Config{
		Importer: moduleImporter{m},
		Error: func(err error) {
			typeErrs = append(typeErrs, err)
		},
	}
	tpkg, _ := cfg.Check(importPath, m.Fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type errors in %s:\n  %s", importPath, strings.Join(msgs, "\n  "))
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  m.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	m.pkgs[importPath] = pkg
	return pkg, nil
}

// IsTestFile reports whether f was parsed from a _test.go file (only
// possible under IncludeTests). Analyzers use it to scope their rules:
// most skip test files entirely; determinism keeps checking them, since
// sweep repro helpers must replay exactly like the sweeps.
func (p *Package) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// moduleImporter resolves module-internal paths through the Module and
// everything else (the standard library) through the source importer.
type moduleImporter struct{ m *Module }

func (mi moduleImporter) Import(path string) (*types.Package, error) {
	m := mi.m
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		pkg, err := m.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}
