package analyze

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// pow2MinDim is the smallest dimension the analyzer complains about.
// Bank conflicts on the Earth Simulator hurt when a power-of-two stride
// aliases the interleaved memory banks across vector-register-length
// sweeps; tiny fixed-size arrays ([2]int dims, [4]float64 interpolation
// weights) are not strides and stay exempt.
const pow2MinDim = 32

// hotPackages are the inner-loop packages where array dimensioning
// determines vector-sweep strides.
var hotPackages = map[string]bool{
	"fd":      true,
	"mhd":     true,
	"overset": true,
	"sphops":  true,
}

// Pow2Stride reports numeric arrays or slices dimensioned with a
// power-of-two constant >= 32 inside the hot packages.
//
// Paper provenance: the yycore production grids use radial extents
// "just below the size (or doubled size) of the vector register" — 255
// or 511, never 256 or 512 — because a power-of-two leading dimension
// makes consecutive vector sweeps hit the same memory bank
// (internal/es models this as BankPenalty). A power-of-two constant
// dimension in a hot package silently re-introduces the penalized
// layout.
//
// Only this analyzer catches it (EXPERIMENTS.md G2): sphops
// Workspace.Rows allocating its row sets with capacity 4096 passes
// every check.sh stage, since no host measurement sees bank conflicts.
var Pow2Stride = &Analyzer{
	Name: "pow2-stride",
	Doc: "a numeric array or slice sized to a power-of-two constant inside the " +
		"hot packages (fd, mhd, overset, sphops) re-creates the Earth " +
		"Simulator's memory-bank-conflict stride; pad the dimension by one",
	Run: runPow2Stride,
}

func runPow2Stride(pass *Pass) error {
	if !hotPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkMakeDims(pass, n)
			case *ast.ArrayType:
				if n.Len == nil {
					return true
				}
				if elem, ok := pass.TypesInfo.Types[n.Elt]; ok && !isNumericType(elem.Type) {
					return true
				}
				if v, ok := constDim(pass, n.Len); ok && isPenalizedPow2(v) {
					pass.Reportf(n.Len.Pos(), "array dimension %d is a power of two: consecutive vector sweeps collide on the same memory bank (ES BankPenalty); pad to %d", v, v+1)
				}
			}
			return true
		})
	}
	return nil
}

// checkMakeDims flags make([]T, n[, c]) with a penalized constant
// length or capacity and numeric element type.
func checkMakeDims(pass *Pass, call *ast.CallExpr) {
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "make" || len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	slice, ok := tv.Type.Underlying().(*types.Slice)
	if !ok || !isNumericType(slice.Elem()) {
		return
	}
	for _, dim := range call.Args[1:] {
		if v, ok := constDim(pass, dim); ok && isPenalizedPow2(v) {
			pass.Reportf(dim.Pos(), "slice dimension %d is a power of two: consecutive vector sweeps collide on the same memory bank (ES BankPenalty); pad to %d", v, v+1)
		}
	}
}

// constDim extracts a compile-time integer value from a dimension
// expression, folding constant arithmetic like 1<<8 or nr*nt.
func constDim(pass *Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	n, exact := constant.Int64Val(v)
	if !exact {
		return 0, false
	}
	return n, true
}

func isPenalizedPow2(n int64) bool {
	return n >= pow2MinDim && n&(n-1) == 0
}

// isNumericType accepts numeric basics and arrays/slices of them, so a
// [64][3]float64 tile still counts as a numeric stride.
func isNumericType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsNumeric != 0
	case *types.Array:
		return isNumericType(u.Elem())
	case *types.Slice:
		return isNumericType(u.Elem())
	}
	return false
}
