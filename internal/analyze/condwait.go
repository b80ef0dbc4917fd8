package analyze

import (
	"go/ast"
	"go/types"
)

// CondWaitLoop reports sync.Cond.Wait calls that are not enclosed in a
// for loop within the same function.
//
// Paper provenance: the goroutine MPI runtime (internal/mpi) blocks
// ranks on condition variables for mailbox matching, barriers and
// communicator splits. Cond.Wait releases the lock and can wake
// spuriously or after another waiter consumed the state, so the
// predicate must be re-checked in a loop; a bare Wait turns a missed
// wakeup into a whole-run deadlock at scale.
//
// Only this analyzer catches it (EXPERIMENTS.md G2): turning
// mpi.Barrier's `for st.gen == 0` into `if` passes every check.sh stage.
var CondWaitLoop = &Analyzer{
	Name: "cond-wait-loop",
	Doc: "sync.Cond.Wait outside a for loop misses spurious or stolen wakeups; " +
		"wrap it as `for !predicate { c.Wait() }`",
	Run: runCondWaitLoop,
}

func runCondWaitLoop(pass *Pass) error {
	for _, file := range pass.Files {
		inspectWithParents(file, func(n ast.Node, parents []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Wait" || len(call.Args) != 0 {
				return true
			}
			if !isSyncCond(pass, sel.X) {
				return true
			}
			if !inForLoop(parents) {
				pass.Reportf(call.Pos(), "sync.Cond.Wait is not guarded by a for loop; re-check the predicate: for !cond { %s.Wait() }", types.ExprString(sel.X))
			}
			return true
		})
	}
	return nil
}

// isSyncCond reports whether e has type sync.Cond or *sync.Cond.
func isSyncCond(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Cond"
}

// inForLoop reports whether the parent stack crosses a for or range
// statement before leaving the enclosing function.
func inForLoop(parents []ast.Node) bool {
	for i := len(parents) - 1; i >= 0; i-- {
		switch parents[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	return false
}
