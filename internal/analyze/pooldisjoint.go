package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolDisjoint checks the determinism contract of par.Pool.For tile
// closures: every tile owns the half-open range [lo,hi), so parallel
// execution is bit-identical to serial execution ONLY if each closure
// writes exclusively through indices derived from its tile range.
// Two violations are flagged: accumulation into a captured scalar
// (a data race and an order-dependent reduction — use a per-tile
// partial combined in tile order, the ReduceMax/ReduceSum shape), and
// writes into captured memory indexed by nothing derived from the tile
// induction variables (tiles may collide on the same element).
//
// No check.sh stage catches it reliably (EXPERIMENTS.md G2): a captured
// counter in the tile closure of sphops' region sweep was reported by
// -race in 7 of 8 runs of decomp's pooled tests, missing the second of
// the first three.
var PoolDisjoint = &Analyzer{
	Name: "pool-disjoint",
	Doc: "par.Pool.For tile closures must write only through tile-derived indices; " +
		"captured-scalar accumulation belongs in ReduceSum/ReduceMax.",
	Run: runPoolDisjoint,
}

func runPoolDisjoint(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if lit := poolForLit(pass.TypesInfo, call); lit != nil {
				checkTileClosure(pass, lit)
			}
			return true
		})
	}
	return nil
}

// poolForLit recognizes a par.Pool For call whose last argument is a
// function literal and returns that literal.
func poolForLit(info *types.Info, call *ast.CallExpr) *ast.FuncLit {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "For" || len(call.Args) != 2 {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "par" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit)
	if !ok {
		return nil
	}
	return lit
}

// checkTileClosure analyzes one tile closure body.
func checkTileClosure(pass *Pass, lit *ast.FuncLit) {
	info := pass.TypesInfo

	// Seed the tile-derived set with the closure's (lo, hi) parameters.
	derived := map[types.Object]bool{}
	for _, f := range lit.Type.Params.List {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				derived[obj] = true
			}
		}
	}
	captured := func(obj types.Object) bool {
		return obj != nil && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End())
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
		ast.Inspect(lit.Body, func(n ast.Node) bool {
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

	ast.Inspect(lit.Body, func(n ast.Node) bool {
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
