package analyze

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, parsed and type-checked package of the module.
type Package struct {
	Path  string // import path, e.g. "repro/internal/mpi"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files
	// TestFiles holds the package's in-package _test.go files, parsed
	// and type-checked together with Files. They are kept separate so
	// production-code analyzers keep ranging over Files only, while
	// test-targeted analyzers (runwith-deadline) range over TestFiles.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// FindModuleRoot walks upward from dir to the nearest directory holding
// a go.mod and returns its absolute path.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analyze: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// modulePath extracts the module path from the go.mod in root.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if p, err := strconv.Unquote(rest); err == nil {
				return p, nil
			}
			return rest, nil
		}
	}
	return "", fmt.Errorf("analyze: no module directive in %s/go.mod", root)
}

// LoadModule parses and type-checks every package under the module
// rooted at root (skipping testdata, vendor, hidden and nested-module
// directories), returning packages sorted by import path.
//
// Type-checking runs in two phases. Phase 1 checks production files in
// topological import order, registering each result with the module
// importer. Phase 2 re-checks packages that have in-package _test.go
// files together with those files, resolving imports against the
// completed phase-1 set — test files may import module packages that
// sit later in the production topo order (or each other's packages),
// so they cannot participate in the ordering itself.
func LoadModule(root string) ([]*Package, error) {
	root, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	type rawPkg struct {
		path, dir string
		files     []*ast.File
		testFiles []*ast.File
		imports   []string
	}
	raw := map[string]*rawPkg{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		files, testFiles, err := parseDir(fset, path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		rp := &rawPkg{path: importPath, dir: path, files: files, testFiles: testFiles}
		seen := map[string]bool{}
		for _, f := range files {
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if !seen[p] {
					seen[p] = true
					rp.imports = append(rp.imports, p)
				}
			}
		}
		raw[importPath] = rp
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Topological order over intra-module imports so dependencies are
	// type-checked before their importers.
	var order []string
	state := map[string]int{} // 0 unvisited, 1 in progress, 2 done
	var visit func(p string) error
	visit = func(p string) error {
		rp := raw[p]
		if rp == nil || state[p] == 2 {
			return nil
		}
		if state[p] == 1 {
			return fmt.Errorf("analyze: import cycle through %s", p)
		}
		state[p] = 1
		for _, imp := range rp.imports {
			if strings.HasPrefix(imp, modPath+"/") || imp == modPath {
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	var paths []string
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	imp := newModuleImporter(fset)
	var pkgs []*Package
	for _, p := range order {
		rp := raw[p]
		pkg, err := typeCheck(fset, rp.path, rp.files, nil, imp)
		if err != nil {
			return nil, err
		}
		pkg.Dir = rp.dir
		imp.module[p] = pkg.Types
		pkgs = append(pkgs, pkg)
	}

	// Phase 2: re-check packages with test files, now that every
	// production package is available to the importer. The importer
	// keeps serving the phase-1 types.Package to importers of p, so
	// downstream results are unaffected.
	for i, pkg := range pkgs {
		rp := raw[pkg.Path]
		if len(rp.testFiles) == 0 {
			continue
		}
		full, err := typeCheck(fset, rp.path, rp.files, rp.testFiles, imp)
		if err != nil {
			return nil, err
		}
		full.Dir = rp.dir
		pkgs[i] = full
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// parseDir parses every .go file in dir (non-recursive), with comments
// retained for ignore directives, returning non-test and _test.go
// files separately. Files of an external test package (package
// foo_test) are left out: they are a package of their own, and would
// fail the joint type-check with a package-name mismatch.
func parseDir(fset *token.FileSet, dir string) (files, testFiles []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		if !buildIncluded(src) {
			continue
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			if !strings.HasSuffix(f.Name.Name, "_test") {
				testFiles = append(testFiles, f)
			}
		} else {
			files = append(files, f)
		}
	}
	return files, testFiles, nil
}

// buildIncluded evaluates the file's //go:build constraint (if any)
// against the default build configuration — GOOS, GOARCH and release
// tags only. Files gated on anything else (race, integration tags) are
// excluded, exactly as a plain `go build` would exclude them; without
// this, a race/!race constant pair type-checks as a redeclaration.
func buildIncluded(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if constraint.IsGoBuild(trimmed) {
			expr, err := constraint.Parse(trimmed)
			if err != nil {
				return true
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH || strings.HasPrefix(tag, "go1")
			})
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			continue
		}
		break // reached the package clause: the constraint header is over
	}
	return true
}

func typeCheck(fset *token.FileSet, importPath string, files, testFiles []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	all := make([]*ast.File, 0, len(files)+len(testFiles))
	all = append(all, files...)
	all = append(all, testFiles...)
	tpkg, err := conf.Check(importPath, fset, all, info)
	if err != nil {
		return nil, fmt.Errorf("analyze: type-checking %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Fset: fset, Files: files, TestFiles: testFiles, Types: tpkg, Info: info}, nil
}

// moduleImporter resolves module-internal import paths from the
// packages type-checked so far and everything else (the standard
// library) through the stdlib source importer — the toolchain no longer
// ships export data for std, so importer.Default is not an option for a
// zero-dependency tool.
type moduleImporter struct {
	module map[string]*types.Package
	std    types.Importer
}

func newModuleImporter(fset *token.FileSet) *moduleImporter {
	return &moduleImporter{
		module: map[string]*types.Package{},
		std:    importer.ForCompiler(fset, "source", nil),
	}
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}
