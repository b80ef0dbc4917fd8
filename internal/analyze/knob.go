package analyze

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Knob reports the settings no program exercises, by three rules: an
// exported field of a library struct that no program sets, one that no
// program reads, and a flag of a cmd/ main that no gate passes. It
// judges the same whole-program selections reach does, and with reach
// at 0 findings every production file is reachable, so a write or read
// anywhere outside a _test.go file counts. Fields are keyed by
// declaration position, as reach keys declarations.
var Knob = &Analyzer{
	Name: "knob",
	Doc: "settings no program exercises: an exported field of a non-main struct that no non-test " +
		"code writes apart from filling its own zero-value default, or reads through a selector " +
		"or by handing a value that reaches it to fmt, encoding/json, encoding/binary, " +
		"text/template or reflect; and a flag of a cmd/ main whose -name is on no scripts/*.sh " +
		"line invoking that command and in no string literal of its package's tests (benchmark/ " +
		"is driven by BENCHMARK.json and examples/ are documentation: neither is judged). Delete " +
		"the knob, wire it, or justify a //yyvet:ignore knob naming its consumer. Judged on whole " +
		"programs only, as reach",
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
	written, defaulted, setters := map[token.Pos]bool{}, map[token.Pos]bool{}, map[token.Pos][]string{}
	read, readers := map[token.Pos]bool{}, map[token.Pos][]string{}
	params := reflectiveParams(pkgs)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			knobWrites(pkg.Info, f, func(p token.Pos) { written[p] = true }, func(p token.Pos) { defaulted[p] = true })
			knobReads(pkg.Info, f, params, func(p token.Pos) { read[p] = true })
		}
		for _, f := range pkg.TestFiles {
			name := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
			knobWrites(pkg.Info, f, func(p token.Pos) { setters[p] = append(setters[p], name) }, func(token.Pos) {})
			knobReads(pkg.Info, f, params, func(p token.Pos) { readers[p] = append(readers[p], name) })
		}
	}
	for p, fd := range fields {
		if !written[p] {
			msg := fd.name + " is set by no program"
			if defaulted[p] {
				msg += " beyond its own default"
			}
			mp.Reportf(fd.pkg, p, "%s%s", msg, onlyTests("set", setters[p]))
		} else if !read[p] {
			mp.Reportf(fd.pkg, p, "%s is read by no program%s", fd.name, onlyTests("read", readers[p]))
		}
	}
	return knobFlags(mp, pkgs)
}

// onlyTests names the test files that do what no program does.
func onlyTests(verb string, files []string) string {
	if len(files) == 0 {
		return ""
	}
	slices.Sort(files)
	return "; only tests " + verb + " it: " + strings.Join(slices.Compact(files), ", ")
}

// knobReads calls read with the declaration position of every field f
// reads: a field selector anywhere but on the stored-to path of an
// assignment or ++/--, and every field reachable from a value handed to
// a reflective consumer (see consumed), which reads what its argument
// reaches.
func knobReads(info *types.Info, f *ast.File, params map[token.Pos]bool, read func(token.Pos)) {
	stored := map[*ast.SelectorExpr]bool{}
	path := func(e ast.Expr) { storePath(e, func(x *ast.SelectorExpr) { stored[x] = true }) }
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				path(l)
			}
		case *ast.IncDecStmt:
			path(n.X)
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !stored[n] {
				read(s.Obj().Pos())
			}
		case *ast.CallExpr:
			consumed(info, n, params, func(a ast.Expr) { decoded(info.TypeOf(a), read, map[types.Type]bool{}) })
		}
		return true
	})
}

// consumed calls use with each argument of call that a reflective
// consumer reads: every argument of a function of a reflective package
// other than the decoders knobWrites counts as writes, and each argument
// a module function passes on from one of its params.
func consumed(info *types.Info, call *ast.CallExpr, params map[token.Pos]bool, use func(ast.Expr)) {
	fn := calleeObj(info, call)
	if fn == nil || fn.Pkg() == nil || decoders[fn.FullName()] {
		return
	}
	sig := fn.Type().(*types.Signature)
	for i, a := range call.Args {
		if reflective[fn.Pkg().Path()] || params[sig.Params().At(min(i, sig.Params().Len()-1)).Pos()] {
			use(a)
		}
	}
}

// reflectiveParams returns, to a fixpoint, the positions of the
// interface-typed variables module code hands to a reflective consumer:
// a function `writeReport(path string, rep any)` that marshals rep reads
// what each caller's rep reaches.
func reflectiveParams(pkgs []*Package) map[token.Pos]bool {
	params := map[token.Pos]bool{}
	for changed := true; changed; {
		changed = false
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						consumed(pkg.Info, call, params, func(a ast.Expr) {
							if id, ok := ast.Unparen(a).(*ast.Ident); ok {
								if v, ok := pkg.Info.Uses[id].(*types.Var); ok && types.IsInterface(v.Type()) && !params[v.Pos()] {
									params[v.Pos()], changed = true, true
								}
							}
						})
					}
					return true
				})
			}
		}
	}
	return params
}

// knobFlags reports each flag a cmd/ main defines whose -name appears
// on no scripts/*.sh line that invokes the command and in no string
// literal of the package's tests. A script line is a logical line (\
// continuations joined) that is neither a comment nor an echo.
func knobFlags(mp *ModulePass, pkgs []*Package) error {
	root, err := FindModuleRoot(pkgs[0].Dir)
	if err != nil {
		return err
	}
	scripts, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil {
		return err
	}
	var lines []string
	for _, s := range scripts {
		data, err := os.ReadFile(s)
		if err != nil {
			return err
		}
		for _, l := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
			if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") && !strings.HasPrefix(l, "echo ") {
				lines = append(lines, l)
			}
		}
	}
	for _, pkg := range pkgs {
		rel, err := filepath.Rel(root, pkg.Dir)
		if err != nil || pkg.Types.Name() != "main" || filepath.Dir(rel) != "cmd" {
			continue
		}
		invokes := regexp.MustCompile(`(^|[\s/"'])` + regexp.QuoteMeta(filepath.Base(rel)) + `($|[\s"'])`)
		var passes []string // the script lines invoking the command, then its tests' literals
		for _, l := range lines {
			if invokes.MatchString(l) {
				passes = append(passes, l)
			}
		}
		for _, f := range pkg.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						passes = append(passes, s)
					}
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name, at := flagName(pkg.Info, call)
				if name == "" {
					return true
				}
				passed := regexp.MustCompile(`(^|[^\w-])--?` + regexp.QuoteMeta(name) + `([^\w-]|$)`)
				if !slices.ContainsFunc(passes, passed.MatchString) {
					mp.Reportf(pkg, at, "flag -%s of %s is passed by no scripts/*.sh line invoking it and no test of its package",
						name, filepath.Base(rel))
				}
				return true
			})
		}
	}
	return nil
}

// flagName returns the constant name a flag or FlagSet definition call
// registers (its parameter called name, ahead of one called usage) and
// where it is written.
func flagName(info *types.Info, call *ast.CallExpr) (string, token.Pos) {
	fn := calleeObj(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
		return "", token.NoPos
	}
	var name ast.Expr
	params := fn.Type().(*types.Signature).Params()
	for i := range min(params.Len(), len(call.Args)) {
		switch params.At(i).Name() {
		case "name":
			name = call.Args[i]
		case "usage": // a definition, not NewFlagSet, Lookup or Set
			if tv := info.Types[name]; name != nil && tv.Value != nil && tv.Value.Kind() == constant.String {
				return constant.StringVal(tv.Value), name.Pos()
			}
		}
	}
	return "", token.NoPos
}

// decoders store into every field their last argument reaches.
var decoders = map[string]bool{
	"encoding/json.Unmarshal": true, "(*encoding/json.Decoder).Decode": true, "encoding/binary.Read": true,
}

// reflective packages read every field of a value handed to them.
var reflective = map[string]bool{
	"fmt": true, "encoding/json": true, "encoding/binary": true, "text/template": true, "reflect": true,
}

// knobWrites calls write with the declaration position of every field f
// stores into, and fill for a field that only fills its own default
// (`if c.F <= 0 { c.F = 2 * c.G }`, see selfTest and own). Writes are:
// assignment, ++/--, element stores and copy into the field, &x.F, a
// pointer-method call on it, composite literals (keyed or positional)
// and encoding/json or encoding/binary decoding into a value of the type.
func knobWrites(info *types.Info, f *ast.File, write, fill func(token.Pos)) {
	path := func(e ast.Expr) {
		storePath(e, func(x *ast.SelectorExpr) {
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				write(s.Obj().Pos())
			}
		})
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
			} else if fn := calleeObj(info, n); fn != nil && decoders[fn.FullName()] {
				decoded(info.TypeOf(n.Args[len(n.Args)-1]), write, map[types.Type]bool{})
			}
		}
		return true
	})
}

// storePath calls visit with each selector a store into e writes
// through: x.F, x.F[i], x.F.G and *x.F each store into the fields on
// the way.
func storePath(e ast.Expr, visit func(*ast.SelectorExpr)) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			visit(x)
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
