package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpanEnd reports obs span Begins that are not closed on every return
// path of the enclosing function.
//
// Paper provenance: the run report attributes compute/comm/wait time
// from recorded span durations (PAPER.md §5's PROGINF-style analysis).
// A Begin without a matching End leaves an open span in the ring: its
// duration stays zero, the phase silently vanishes from the report, and
// the exclusive-time reconstruction misattributes everything nested
// inside it. An early return between Begin and End is the same bug on
// one path only — which is why the safe idiom is
// `defer rr.Begin(kind).End()` or a defer on the assigned span.
//
// Only this analyzer catches it on an error path (EXPERIMENTS.md G2):
// RunCampaign returning on a checkpoint-read error before it ends its
// ckpt.read span passes every check.sh stage. An End dropped on the
// step path is also caught by core.TestTraceCoverageAndTracks.
var SpanEnd = &Analyzer{
	Name: "span-end",
	Doc: "an obs span Begin whose Span is discarded, never ended, or ended " +
		"only after an early return leaves an open span that corrupts the " +
		"run report's time attribution",
	Run: runSpanEnd,
}

func runSpanEnd(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpanBody(pass, fd.Body)
		}
	}
	return nil
}

// checkSpanBody inspects one function body, closures included; each
// Begin's return-path analysis is scoped to its own innermost function.
func checkSpanBody(pass *Pass, body *ast.BlockStmt) {
	inspectWithParents(body, func(n ast.Node, parents []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSpanBeginCall(pass, call) {
			return true
		}
		switch parent := nearestParent(parents).(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "result of Begin is discarded; the span is never ended and its duration stays zero in the report")
		case *ast.SelectorExpr:
			// rr.Begin(kind).End() — chained End; fine under defer or not.
			return true
		case *ast.AssignStmt:
			id := assignedIdent(parent, call)
			if id == nil {
				return true // complex LHS: assume it escapes
			}
			if id.Name == "_" {
				pass.Reportf(call.Pos(), "span assigned to _; the span is never ended")
				return true
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				return true
			}
			checkSpanUse(pass, call, enclosingFuncBody(parents, body), id, obj)
		}
		// Other parents (call argument, return, composite literal, ...)
		// hand the span elsewhere; assume the receiver ends it.
		return true
	})
}

// checkSpanUse classifies every use of the span object inside fnBody and
// reports the two failure shapes: never ended, and ended only after an
// early return path.
func checkSpanUse(pass *Pass, begin *ast.CallExpr, fnBody *ast.BlockStmt, def *ast.Ident, obj types.Object) {
	var (
		deferred bool      // defer sp.End() anywhere
		escapes  bool      // passed, returned, stored: assume ended elsewhere
		lastEnd  token.Pos // latest plain sp.End() call
	)
	inspectWithParents(fnBody, func(n ast.Node, parents []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id == def || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		parent := nearestParent(parents)
		if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id && sel.Sel.Name == "End" {
			if underDefer(parents) || insideFuncLit(parents, fnBody) {
				// defer runs on every path; a closure's timing is the
				// closure's business — both close the span safely.
				deferred = true
				return true
			}
			if sel.End() > lastEnd {
				lastEnd = sel.End()
			}
			return true
		}
		if assign, ok := parent.(*ast.AssignStmt); ok {
			for _, lhs := range assign.Lhs {
				if lhs == id {
					return true // reassignment target, not a use
				}
			}
			if blankAssigned(assign, id) {
				return true // `_ = sp` silences the compiler, not the span
			}
		}
		escapes = true
		return true
	})
	if deferred || escapes {
		return
	}
	if lastEnd == token.NoPos {
		pass.Reportf(begin.Pos(), "span %s is never ended: call %s.End() or use `defer %s.End()`", def.Name, def.Name, def.Name)
		return
	}
	if ret := returnBetween(fnBody, begin.End(), lastEnd); ret != token.NoPos {
		pass.Reportf(ret, "return between %s.Begin and %s.End leaves the span open on this path; use `defer %s.End()`", def.Name, def.Name, def.Name)
	}
}

// returnBetween finds a ReturnStmt of fnBody's own function (nested
// function literals are skipped) positioned after lo and before hi.
func returnBetween(fnBody *ast.BlockStmt, lo, hi token.Pos) token.Pos {
	found := token.NoPos
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its returns exit the literal, not this function
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			if ret.Pos() > lo && ret.Pos() < hi && found == token.NoPos {
				found = ret.Pos()
			}
		}
		return true
	})
	return found
}

// underDefer reports whether the innermost statement ancestor is a
// DeferStmt.
func underDefer(parents []ast.Node) bool {
	for i := len(parents) - 1; i >= 0; i-- {
		switch parents[i].(type) {
		case *ast.DeferStmt:
			return true
		case ast.Stmt:
			return false
		}
	}
	return false
}

// insideFuncLit reports whether the use site sits in a function literal
// nested below fnBody (so it runs on the literal's schedule, not the
// enclosing function's return paths).
func insideFuncLit(parents []ast.Node, fnBody *ast.BlockStmt) bool {
	for i := len(parents) - 1; i >= 0; i-- {
		if parents[i] == fnBody {
			return false
		}
		if _, ok := parents[i].(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// enclosingFuncBody returns the body of the innermost function literal
// containing the node (via its parent stack), or outer when the node
// belongs to the outer function directly.
func enclosingFuncBody(parents []ast.Node, outer *ast.BlockStmt) *ast.BlockStmt {
	for i := len(parents) - 1; i >= 0; i-- {
		if fl, ok := parents[i].(*ast.FuncLit); ok {
			return fl.Body
		}
	}
	return outer
}

// isSpanBeginCall recognizes a method call named Begin whose result is a
// value type carrying an End method (obs.Span or a fixture equivalent).
func isSpanBeginCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Begin" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "End" {
			return true
		}
	}
	return false
}

// nearestParent returns the innermost non-paren ancestor.
func nearestParent(parents []ast.Node) ast.Node {
	for i := len(parents) - 1; i >= 0; i-- {
		if _, ok := parents[i].(*ast.ParenExpr); ok {
			continue
		}
		return parents[i]
	}
	return nil
}

// assignedIdent finds the identifier on the LHS of assign that receives
// the value of call, or nil when the destination is not an identifier.
func assignedIdent(assign *ast.AssignStmt, call *ast.CallExpr) *ast.Ident {
	idx := 0
	if len(assign.Rhs) == len(assign.Lhs) {
		for i, rhs := range assign.Rhs {
			if rhs == call {
				idx = i
			}
		}
	}
	if idx >= len(assign.Lhs) {
		return nil
	}
	id, _ := assign.Lhs[idx].(*ast.Ident)
	return id
}

// blankAssigned reports whether id appears on the RHS of assign with a
// blank identifier as its destination.
func blankAssigned(assign *ast.AssignStmt, id *ast.Ident) bool {
	for i, rhs := range assign.Rhs {
		if rhs != id {
			continue
		}
		if i < len(assign.Lhs) {
			if lhs, ok := assign.Lhs[i].(*ast.Ident); ok && lhs.Name == "_" {
				return true
			}
		}
	}
	return false
}
