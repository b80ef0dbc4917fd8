package analyze

import (
	"go/ast"
)

// RunWithDeadline reports mpi.RunWith calls in _test.go files whose
// RunConfig does not set Deadline.
//
// Paper provenance: the goroutine runtime's collectives block until
// every rank arrives, so a test that wedges — a mismatched tag, an
// injected fault the transport does not absorb, a rank killed without
// recovery — blocks forever and burns the entire `go test` timeout for
// the package instead of failing in milliseconds. RunConfig.Deadline is
// the watchdog that converts such a wedge into a typed, attributable
// error; every test-side RunWith must set it. Production callsites are
// exempt: long campaign runs legitimately compute their own deadlines
// or run open-ended.
//
// Only this analyzer catches it (EXPERIMENTS.md G2): deleting the
// Deadline of decomp.TestKilledRankAbortsAdvance passes every check.sh
// stage; the missing watchdog shows only the day that test wedges.
var RunWithDeadline = &Analyzer{
	Name: "runwith-deadline",
	Doc: "mpi.RunWith in a test must set RunConfig.Deadline so a wedged " +
		"run fails fast under the watchdog instead of consuming the whole " +
		"go test timeout",
	Run: runRunWithDeadline,
}

func runRunWithDeadline(pass *Pass) error {
	for _, file := range pass.TestFiles {
		file := file
		inspectWithParents(file, func(n ast.Node, parents []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || calleeName(call) != "RunWith" || len(call.Args) < 2 {
				return true
			}
			if !deadlineSet(pass, file, call.Args[1]) {
				pass.Reportf(call.Pos(),
					"RunWith in a test must set RunConfig.Deadline; without the watchdog a wedged run blocks until the go test timeout")
			}
			return true
		})
	}
	return nil
}

// deadlineSet reports whether the RunConfig expression observably sets
// Deadline. Composite literals are checked directly; a plain identifier
// is traced to its in-file composite-literal binding or a later
// `cfg.Deadline = ...` assignment. Anything opaque (a helper call, a
// field selection) is assumed to set it — helpers are the sanctioned
// place to centralize deadlines, and guessing would produce noise.
func deadlineSet(pass *Pass, file *ast.File, cfg ast.Expr) bool {
	switch e := cfg.(type) {
	case *ast.CompositeLit:
		return litSetsDeadline(e)
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(e)
		if obj == nil {
			return true
		}
		found := false
		ast.Inspect(file, func(n ast.Node) bool {
			if found {
				return false
			}
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj && i < len(s.Rhs) {
						if cl, ok := s.Rhs[i].(*ast.CompositeLit); ok && litSetsDeadline(cl) {
							found = true
						}
						// Opaque initializer (helper call): trust it.
						if _, ok := s.Rhs[i].(*ast.CompositeLit); !ok {
							found = true
						}
					}
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Deadline" {
						if id, ok := sel.X.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
							found = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if pass.TypesInfo.ObjectOf(name) == obj && i < len(s.Values) {
						if cl, ok := s.Values[i].(*ast.CompositeLit); ok && litSetsDeadline(cl) {
							found = true
						} else if _, ok := s.Values[i].(*ast.CompositeLit); !ok {
							found = true
						}
					}
				}
			}
			return true
		})
		return found
	default:
		return true
	}
}

// litSetsDeadline reports whether the composite literal names a
// Deadline key. A positional literal necessarily supplies every field,
// Deadline included.
func litSetsDeadline(cl *ast.CompositeLit) bool {
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return true // positional: all fields present
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Deadline" {
			return true
		}
	}
	return false
}
