package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AbortOnErr reports rank functions (func literals passed to mpi.Run /
// mpi.RunWith / core.RunRanks / core.RunRanksFrom) that capture an error into a variable
// shared with the driver and then keep running.
//
// Paper provenance: every rank of the goroutine runtime participates in
// collectives and paired sends/receives. A rank that stores its error
// into a captured variable and carries on either computes with a broken
// state or — worse — stops sending while its peers stay blocked in
// Recv, turning one rank's failure into a whole-run wedge. The capture
// must be followed on the same path by `return` or, better, by
// Comm.Abort(err), which wakes every waiter with the cause.
//
// Only this analyzer catches it (EXPERIMENTS.md G2): a
// core.RunParallelCheckpointWith rank that records its checkpoint
// encode error in a shared variable instead of calling Abort passes
// every check.sh stage, because no test makes the encode fail.
var AbortOnErr = &Analyzer{
	Name: "abort-on-err",
	Doc: "an error captured into a shared variable inside an mpi.Run rank " +
		"function must be followed by return or Comm.Abort on the same path; " +
		"a rank that keeps running after recording its failure wedges its peers",
	Run: runAbortOnErr,
}

func runAbortOnErr(pass *Pass) error {
	for _, file := range pass.Files {
		inspectWithParents(file, func(n ast.Node, parents []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name := calleeName(call); name != "Run" && name != "RunWith" && name != "RunRanks" && name != "RunRanksFrom" {
				return true
			}
			for _, arg := range call.Args {
				if fl, ok := arg.(*ast.FuncLit); ok && isRankFn(pass, fl) {
					checkRankFn(pass, fl)
				}
			}
			return true
		})
	}
	return nil
}

// calleeName returns the bare name of the called function ("Run" for
// both mpi.Run and a dot-imported or fixture-local Run).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isRankFn recognizes the rank-function shape: a first parameter whose
// type is a pointer to a named type with an Abort method (i.e.
// *mpi.Comm or a fixture equivalent); core.RunRanks hands its body the
// built rank and recorder after it.
func isRankFn(pass *Pass, fl *ast.FuncLit) bool {
	tv, ok := pass.TypesInfo.Types[fl]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok || sig.Params().Len() < 1 {
		return false
	}
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "Abort" {
			return true
		}
	}
	return false
}

// checkRankFn inspects one rank function body for shared-error captures
// whose path does not terminate.
func checkRankFn(pass *Pass, rankFn *ast.FuncLit) {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	inspectWithParents(rankFn.Body, func(n ast.Node, parents []ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok != token.ASSIGN {
			return true
		}
		for _, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				continue
			}
			v, ok := obj.(*types.Var)
			if !ok || !types.Implements(v.Type(), errType) {
				continue
			}
			// Captured: declared outside the rank function's body.
			if v.Pos() >= rankFn.Body.Pos() && v.Pos() <= rankFn.Body.End() {
				continue
			}
			if !pathTerminates(assign, parents) {
				pass.Reportf(assign.Pos(),
					"error captured into shared variable %s is not followed by return or Abort on this path; the rank keeps running and its peers can wedge", id.Name)
			}
		}
		return true
	})
}

// pathTerminates walks outward from the capturing assignment: at each
// enclosing statement list it scans the statements after the current
// position for a terminator. Reaching a for/range ancestor without one
// means the rank loops on; reaching the rank function's end is the
// implicit return, acceptable only if nothing but terminators and
// block exits stood between the capture and it.
func pathTerminates(assign ast.Stmt, parents []ast.Node) bool {
	sawFollowing := false
	scan := func(list []ast.Stmt, cur ast.Stmt) (done, ok bool) {
		idx := -1
		for i, s := range list {
			if s == cur {
				idx = i
				break
			}
		}
		if idx < 0 {
			return false, false
		}
		for _, s := range list[idx+1:] {
			if isTerminator(s) {
				return true, true
			}
			sawFollowing = true
		}
		return false, false
	}
	var cur ast.Stmt = assign
	for i := len(parents) - 1; i >= 0; i-- {
		switch p := parents[i].(type) {
		case *ast.BlockStmt:
			if done, ok := scan(p.List, cur); done {
				return ok
			}
		case *ast.CaseClause:
			if done, ok := scan(p.Body, cur); done {
				return ok
			}
		case *ast.CommClause:
			if done, ok := scan(p.Body, cur); done {
				return ok
			}
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.FuncLit:
			// A nested closure's control flow is its caller's business;
			// stay quiet rather than guess. (rankFn itself is the walk
			// root and never appears in the parent stack.)
			return true
		}
		if s, ok := parents[i].(ast.Stmt); ok {
			cur = s
		}
	}
	// Fell off the rank function's body: the implicit return, fine only
	// when the capture sat in tail position.
	return !sawFollowing
}

// isTerminator reports whether s ends the current path: return, break,
// goto, panic, Comm.Abort, or a fatal exit.
func isTerminator(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return st.Tok == token.BREAK || st.Tok == token.GOTO
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return fun.Name == "panic"
		case *ast.SelectorExpr:
			switch fun.Sel.Name {
			case "Abort", "Exit", "Goexit", "Fatal", "Fatalf":
				return true
			}
		}
	}
	return false
}
