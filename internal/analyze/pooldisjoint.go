package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolDisjoint checks the determinism contract of par.Pool.For tile
// functions: every tile owns the half-open range [lo,hi), so parallel
// execution is bit-identical to serial execution ONLY if each tile
// writes exclusively through indices derived from its tile range.
// Two violations are flagged: accumulation into a captured scalar
// (a data race and an order-dependent reduction — use a per-tile
// partial combined in tile order, the ReduceMax/ReduceSum shape), and
// writes into captured memory indexed by nothing derived from the tile
// induction variables (tiles may collide on the same element).
//
// A tile function is a function literal passed to For, or a method or
// function of the package named there: directly (p.For(n, w.tile)) or
// through a variable or struct field the package binds it to
// (w.fn = w.tile; p.For(n, w.fn)), the way a hot path hands over a
// tile without allocating a closure. In a method the receiver counts
// as captured memory, so its fields are checked as a closure's
// captured variables are.
//
// No check.sh stage catches it reliably (EXPERIMENTS.md G2): a captured
// counter in the tile function of sphops' region sweep was reported by
// -race in 7 of 8 runs of decomp's pooled tests, missing the second of
// the first three.
var PoolDisjoint = &Analyzer{
	Name: "pool-disjoint",
	Doc: "par.Pool.For tile functions must write only through tile-derived indices; " +
		"captured-scalar accumulation belongs in ReduceSum/ReduceMax.",
	Run: runPoolDisjoint,
}

// tileBody is one tile function: its (lo, hi) parameters, its body and
// the source span inside which a declaration is the tile's own rather
// than captured (a method's receiver lies outside it).
type tileBody struct {
	params   *ast.FieldList
	body     *ast.BlockStmt
	from, to token.Pos
}

func runPoolDisjoint(pass *Pass) error {
	info := pass.TypesInfo
	decls := map[types.Object]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[info.Defs[fd.Name]] = fd
			}
		}
	}
	// tileOf resolves an expression naming a function to its body: a
	// literal, or a function or method of the package.
	tileOf := func(e ast.Expr) *tileBody {
		if lit, ok := ast.Unparen(e).(*ast.FuncLit); ok {
			return &tileBody{lit.Type.Params, lit.Body, lit.Pos(), lit.End()}
		}
		if fd := decls[objOf(info, e)]; fd != nil {
			return &tileBody{fd.Type.Params, fd.Body, fd.Type.Params.Pos(), fd.End()}
		}
		return nil
	}

	// bound maps a variable or struct field to the functions the
	// package assigns it.
	bound := map[types.Object][]*tileBody{}
	var fors []*ast.CallExpr
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) != len(n.Lhs) {
					break
				}
				for i, lhs := range n.Lhs {
					if obj, tb := objOf(info, lhs), tileOf(n.Rhs[i]); obj != nil && tb != nil {
						bound[obj] = append(bound[obj], tb)
					}
				}
			case *ast.CallExpr:
				if isPoolFor(info, n) {
					fors = append(fors, n)
				}
			}
			return true
		})
	}

	checked := map[*ast.BlockStmt]bool{}
	for _, call := range fors {
		tiles := bound[objOf(info, call.Args[1])]
		if tb := tileOf(call.Args[1]); tb != nil {
			tiles = []*tileBody{tb}
		}
		for _, tb := range tiles {
			if !checked[tb.body] {
				checked[tb.body] = true
				checkTile(pass, tb)
			}
		}
	}
	return nil
}

// isPoolFor recognizes a call of a par.Pool method For(n, fn).
func isPoolFor(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "For" || len(call.Args) != 2 {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "par" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// objOf returns the object an identifier or a selector's name denotes,
// or nil.
func objOf(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// checkTile analyzes one tile function body.
func checkTile(pass *Pass, tb *tileBody) {
	info := pass.TypesInfo

	// Seed the tile-derived set with the tile's (lo, hi) parameters.
	derived := map[types.Object]bool{}
	for _, f := range tb.params.List {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				derived[obj] = true
			}
		}
	}
	captured := func(obj types.Object) bool {
		return obj != nil && (obj.Pos() < tb.from || obj.Pos() > tb.to)
	}
	refsAny := func(e ast.Expr, set map[types.Object]bool) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && set[info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	refsCaptured := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj, isVar := info.Uses[id].(*types.Var); isVar && captured(obj) {
					found = true
				}
			}
			return !found
		})
		return found
	}

	// Propagate derivation through local bindings to a fixpoint: a local
	// bound from a tile-derived expression is itself tile-derived, and a
	// nested closure's parameters are its caller's responsibility (the
	// values passed in were checked at the call), so they count as safe.
	// Locals bound purely from captured state are recorded: a write
	// through such an alias is as suspect as a write through the
	// captured variable itself.
	fromCaptured := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		mark := func(obj types.Object, rhsDerived, rhsCaptured bool) {
			if obj == nil {
				return
			}
			if rhsDerived && !derived[obj] {
				derived[obj] = true
				changed = true
			}
			if rhsCaptured && !rhsDerived && !fromCaptured[obj] {
				fromCaptured[obj] = true
				changed = true
			}
		}
		ast.Inspect(tb.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				for _, f := range n.Type.Params.List {
					for _, name := range f.Names {
						if obj := info.Defs[name]; obj != nil && !derived[obj] {
							derived[obj] = true
							changed = true
						}
					}
				}
			case *ast.AssignStmt:
				rhsDerived, rhsCaptured := false, false
				for _, rhs := range n.Rhs {
					rhsDerived = rhsDerived || refsAny(rhs, derived)
					rhsCaptured = rhsCaptured || refsCaptured(rhs)
				}
				for _, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						obj := info.Defs[id]
						if obj == nil {
							obj = info.Uses[id]
						}
						if !captured(obj) {
							mark(obj, rhsDerived, rhsCaptured)
						}
					}
				}
			case *ast.RangeStmt:
				xDerived := refsAny(n.X, derived)
				xCaptured := refsCaptured(n.X)
				for _, v := range []ast.Expr{n.Key, n.Value} {
					if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
						obj := info.Defs[id]
						// The KEY of any range is a position, which is as
						// good as derived when the ranged value is; the
						// VALUE inherits the source's provenance the same
						// way.
						mark(obj, xDerived, xCaptured)
					}
				}
			}
			return true
		})
	}

	report := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, format, args...)
	}

	checkWrite := func(lhs ast.Expr, compound bool) {
		lhs = ast.Unparen(lhs)
		switch lhs := lhs.(type) {
		case *ast.Ident:
			obj, _ := info.Uses[lhs].(*types.Var)
			if obj == nil || !captured(obj) {
				return
			}
			if _, isBasic := obj.Type().Underlying().(*types.Basic); isBasic {
				report(lhs.Pos(),
					"accumulation into captured %s inside a Pool.For tile closure; compute a per-tile partial and combine in tile order (the ReduceSum/ReduceMax shape)",
					lhs.Name)
			}
		case *ast.SelectorExpr:
			// A scalar field of captured memory: s.n, s.t.n, or a
			// method tile's receiver field.
			if refsAny(lhs, derived) {
				return
			}
			if _, isBasic := info.TypeOf(lhs).Underlying().(*types.Basic); !isBasic {
				return
			}
			base := baseIdent(lhs)
			if base == nil {
				return
			}
			if obj := info.Uses[base]; captured(obj) || fromCaptured[obj] {
				report(lhs.Pos(),
					"accumulation into captured %s inside a Pool.For tile closure; compute a per-tile partial and combine in tile order (the ReduceSum/ReduceMax shape)",
					types.ExprString(lhs))
			}
		case *ast.IndexExpr:
			if refsAny(lhs, derived) {
				return // indexed by the tile range somewhere in the chain
			}
			base := baseIdent(lhs)
			if base == nil {
				return
			}
			obj := info.Uses[base]
			if obj == nil {
				return
			}
			if captured(obj) || fromCaptured[obj] {
				report(lhs.Pos(),
					"write into %s inside a Pool.For tile closure is not indexed by the tile range; tiles may write the same element",
					base.Name)
			}
		}
		_ = compound
	}

	ast.Inspect(tb.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				checkWrite(lhs, n.Tok != token.ASSIGN)
			}
		case *ast.IncDecStmt:
			checkWrite(n.X, true)
		}
		return true
	})
}

// baseIdent returns the leftmost identifier of an index/selector chain
// (a[i], a.b[i], a[i][j] all bottom at a), or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
