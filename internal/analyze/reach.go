package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// Reach roots every main package's declarations, init and initialized
// package var, and follows identifier references (registries, closures
// and method values count); a live type keeps the methods an interface
// names. Keys are name positions, which survive load.go's phase 2.
var Reach = &Analyzer{
	Name: "reach",
	Doc: "declarations no main package reaches by reference or interface method name; delete " +
		"them or justify a //yyvet:ignore reach (test oracle, ROADMAP item). A selection " +
		"without a main, or one leaving out module files, gets no reach findings",
	RunModule: runReach,
}

func runReach(mp *ModulePass) error {
	pkgs := mp.Packages()
	if !wholeProgram(pkgs) {
		mp.Module.directives.excuse(mp.Analyzer.Name)
		return nil
	}
	ifaces := interfaceMethodNames(pkgs)
	decls, pkgOf, edges := map[token.Pos]*ast.Ident{}, map[token.Pos]*Package{}, map[token.Pos][]token.Pos{}
	var roots []token.Pos
	for _, pkg := range pkgs {
		add := func(name *ast.Ident, node ast.Node, root bool) {
			decls[name.Pos()], pkgOf[name.Pos()] = name, pkg
			edges[name.Pos()] = append(edges[name.Pos()], referenced(pkg.Info, node)...)
			if root || pkg.Types.Name() == "main" || name.Name == "init" {
				roots = append(roots, name.Pos())
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					add(fd.Name, fd, false)
					if fd.Recv != nil && ifaces[fd.Name.Name] {
						for _, t := range referenced(pkg.Info, fd.Recv) { // the receiver's type
							edges[t] = append(edges[t], fd.Name.Pos())
						}
					}
					continue
				}
				gd := d.(*ast.GenDecl)
				for _, s := range gd.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						add(ts.Name, ts, false)
					} else if vs, ok := s.(*ast.ValueSpec); ok {
						for _, n := range vs.Names {
							add(n, vs, gd.Tok == token.VAR && len(vs.Values) > 0)
						}
					}
				}
			}
		}
	}
	closure := func(from []token.Pos) map[token.Pos]bool {
		seen := map[token.Pos]bool{}
		for ; len(from) > 0; from = from[1:] {
			if p := from[0]; decls[p] != nil && !seen[p] {
				seen[p] = true
				from = append(from, edges[p]...)
			}
		}
		return seen
	}
	live := closure(roots)
	testers := map[token.Pos][]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.TestFiles {
			for p := range closure(referenced(pkg.Info, f)) {
				testers[p] = append(testers[p], filepath.Base(pkg.Fset.Position(f.Pos()).Filename))
			}
		}
	}
	for p, name := range decls {
		if ts, msg := testers[p], ""; !live[p] && name.Name != "_" {
			if slices.Sort(ts); len(ts) > 0 {
				msg = "; only tests reach it: " + strings.Join(slices.Compact(ts), ", ")
			}
			mp.Reportf(pkgOf[p], p, "%s is reached by no main package%s", name.Name, msg)
		}
	}
	return nil
}

// referenced lists where the objects used under n are declared.
func referenced(info *types.Info, n ast.Node) (out []token.Pos) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
			out = append(out, info.Uses[id].Pos())
		}
		return true
	})
	return out
}

// interfaceMethodNames: error's and every package-level interface's methods.
func interfaceMethodNames(pkgs []*Package) map[string]bool {
	names, seen := map[string]bool{"Error": true}, map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(n).Type().Underlying().(*types.Interface); ok {
				for i := range it.NumMethods() {
					names[it.Method(i).Name()] = true
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return names
}

// wholeProgram: the selection holds a main and every parsed production file.
func wholeProgram(pkgs []*Package) bool {
	selected, whole := map[string]bool{}, false
	for _, p := range pkgs {
		whole = whole || p.Types.Name() == "main"
		for _, f := range p.Files {
			selected[p.Fset.File(f.Pos()).Name()] = true
		}
	}
	root, err := FindModuleRoot(pkgs[0].Dir)
	for _, p := range pkgs {
		p.Fset.Iterate(func(f *token.File) bool {
			whole = whole && err == nil && (selected[f.Name()] || strings.HasSuffix(f.Name(), "_test.go") ||
				!strings.HasPrefix(f.Name(), root+string(filepath.Separator)))
			return whole
		})
	}
	return whole
}
