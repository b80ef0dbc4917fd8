package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// Knob reports exported fields of a library struct that no program
// sets. It judges the same whole-program selections reach does, and
// with reach at 0 findings every production file is reachable, so a
// write anywhere outside a _test.go file counts. Fields are keyed by
// declaration position, as reach keys declarations.
var Knob = &Analyzer{
	Name: "knob",
	Doc: "exported fields of non-main structs that no non-test code writes, apart from filling " +
		"the field's own zero-value default; delete the knob or justify a //yyvet:ignore knob " +
		"naming the test or ROADMAP item that consumes it. Judged on whole programs only, as reach",
	RunModule: runKnob,
}

func runKnob(mp *ModulePass) error {
	pkgs := mp.Packages()
	if !wholeProgram(pkgs) {
		mp.Module.directives.excuse(mp.Analyzer.Name)
		return nil
	}
	type field struct {
		pkg  *Package
		name string // Type.Field
	}
	fields := map[token.Pos]field{}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || pkg.Types.Name() == "main" || strings.HasSuffix(pkg.Fset.Position(tn.Pos()).Filename, "_test.go") {
				continue // main's own types, and types declared in tests
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if v := st.Field(i); v.Exported() && !v.Embedded() {
						fields[v.Pos()] = field{pkg, n + "." + v.Name()}
					}
				}
			}
		}
	}
	written, defaulted, testers := map[token.Pos]bool{}, map[token.Pos]bool{}, map[token.Pos][]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			knobWrites(pkg.Info, f, func(p token.Pos) { written[p] = true }, func(p token.Pos) { defaulted[p] = true })
		}
		for _, f := range pkg.TestFiles {
			name := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
			knobWrites(pkg.Info, f, func(p token.Pos) { testers[p] = append(testers[p], name) }, func(token.Pos) {})
		}
	}
	for p, fd := range fields {
		if written[p] {
			continue
		}
		msg := fd.name + " is set by no program"
		if defaulted[p] {
			msg += " beyond its own default"
		}
		if ts := testers[p]; len(ts) > 0 {
			slices.Sort(ts)
			msg += "; only tests set it: " + strings.Join(slices.Compact(ts), ", ")
		}
		mp.Reportf(fd.pkg, p, "%s", msg)
	}
	return nil
}

// knobWrites calls write with the declaration position of every field f
// stores into, and fill for a field that only fills its own default
// (`if c.F <= 0 { c.F = 2 * c.G }`, see selfTest and own). Writes are:
// assignment, ++/--, element stores and copy into the field, &x.F, a
// pointer-method call on it, composite literals (keyed or positional)
// and encoding/json or encoding/binary decoding into a value of the type.
func knobWrites(info *types.Info, f *ast.File, write, fill func(token.Pos)) {
	var path func(e ast.Expr)
	path = func(e ast.Expr) { // x.F, x.F[i], x.F.G, *x.F: each field on the way is stored into
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
					write(s.Obj().Pos())
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	fills := map[ast.Stmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if tested, root := selfTest(info, n.Cond); tested != "" {
				for _, s := range n.Body.List {
					if as, ok := s.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && types.ExprString(as.Lhs[0]) == tested &&
						own(info, as.Rhs[0], root) {
						fills[as] = true
					}
				}
			}
		case *ast.AssignStmt:
			if fills[n] {
				fill(info.Selections[n.Lhs[0].(*ast.SelectorExpr)].Obj().Pos())
				break
			}
			for _, l := range n.Lhs {
				path(l)
			}
		case *ast.IncDecStmt:
			path(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				path(n.X)
			}
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal && !isPointer(info.TypeOf(n.X)) &&
				isPointer(s.Obj().Type().(*types.Signature).Recv().Type()) {
				path(n.X) // the method takes &n.X
			}
		case *ast.CompositeLit:
			st, ok := info.TypeOf(n).Underlying().(*types.Struct)
			for i, el := range n.Elts {
				if kv, isKV := el.(*ast.KeyValueExpr); isKV {
					if id, isID := kv.Key.(*ast.Ident); isID && info.Uses[id] != nil {
						write(info.Uses[id].Pos())
					}
				} else if ok && i < st.NumFields() {
					write(st.Field(i).Pos())
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("copy") {
				path(n.Args[0])
			} else if fn := calleeObj(info, n); fn != nil {
				switch fn.FullName() {
				case "encoding/json.Unmarshal", "(*encoding/json.Decoder).Decode", "encoding/binary.Read":
					decoded(info.TypeOf(n.Args[len(n.Args)-1]), write, map[types.Type]bool{})
				}
			}
		}
		return true
	})
}

// selfTest returns the field selector cond compares against a value of
// its own struct or a constant (`c.F <= 0`, `c.F < c.G`), and the
// variable the selector starts from.
func selfTest(info *types.Info, cond ast.Expr) (string, types.Object) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op == token.NEQ || b.Op == token.LAND || b.Op == token.LOR {
		return "", nil
	}
	for _, pair := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
		sel, ok := ast.Unparen(pair[0]).(*ast.SelectorExpr)
		if !ok || info.Selections[sel] == nil || info.Selections[sel].Kind() != types.FieldVal {
			continue
		}
		root := sel.X
		for s, ok := ast.Unparen(root).(*ast.SelectorExpr); ok; s, ok = ast.Unparen(root).(*ast.SelectorExpr) {
			root = s.X
		}
		if id, ok := ast.Unparen(root).(*ast.Ident); ok && own(info, pair[1], info.Uses[id]) {
			return types.ExprString(sel), info.Uses[id]
		}
	}
	return "", nil
}

// own reports whether e is built only from constants, conversions and
// the fields of root: a default or clamp the struct gives itself.
func own(info *types.Info, e ast.Expr, root types.Object) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if id, isID := n.(*ast.Ident); isID && ok {
			switch obj := info.Uses[id].(type) {
			case *types.Const, *types.TypeName, *types.PkgName, *types.Nil:
			case *types.Var:
				ok = obj == root || obj.IsField()
			default:
				ok = false
			}
		}
		return ok
	})
	return ok
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// decoded marks every field a decoder can store into a value of type t.
func decoded(t types.Type, write func(token.Pos), seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case interface{ Elem() types.Type }: // pointer, slice, array, map
		decoded(u.Elem(), write, seen)
	case *types.Struct:
		for i := range u.NumFields() {
			write(u.Field(i).Pos())
			decoded(u.Field(i).Type(), write, seen)
		}
	}
}
