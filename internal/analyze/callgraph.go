package analyze

import (
	"go/ast"
	"go/types"
	"sort"
)

// CallGraph is the static, repo-wide call graph over every function
// declaration of the selected packages' production files. Nodes are
// keyed by the symbol's types.Func FullName rather than object
// identity: packages with in-package test files are type-checked twice
// (load.go phase 2), so the object a cross-package caller resolves to
// and the object the declaring package carries are distinct values for
// the same symbol.
//
// Edges are the statically resolvable calls only: direct function
// calls, method calls through a concrete receiver, and qualified
// package calls. Calls through interfaces, function values and
// closures stay unresolved (CallSite.Callee == nil); analyzers must
// treat them conservatively. Calls inside function literals are
// attributed to the enclosing declaration, which matches how the
// literal's free variables bind.
type CallGraph struct {
	nodes map[string]*FuncNode
}

// FuncNode is one declared function or method.
type FuncNode struct {
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Calls []*CallSite // outgoing, in source order
}

// CallSite is one call expression inside the FuncNode listing it.
type CallSite struct {
	Callee *FuncNode // nil when the target cannot be resolved statically
	Call   *ast.CallExpr
}

// Node returns the graph node declaring obj (matched by symbol name),
// or nil.
func (g *CallGraph) Node(obj *types.Func) *FuncNode {
	if obj == nil {
		return nil
	}
	return g.nodes[obj.FullName()]
}

// Nodes returns every node sorted by symbol name (deterministic).
func (g *CallGraph) Nodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj.FullName() < out[j].Obj.FullName() })
	return out
}

// buildCallGraph indexes every FuncDecl of the packages' production
// files and resolves their static call edges.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: map[string]*FuncNode{}}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[obj.FullName()] = &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
			}
		}
	}
	for _, caller := range g.nodes {
		pkg := caller.Pkg
		ast.Inspect(caller.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			caller.Calls = append(caller.Calls, &CallSite{
				Callee: g.Node(calleeObj(pkg.Info, call)), Call: call,
			})
			return true
		})
	}
	return g
}

// calleeObj resolves the *types.Func a call expression statically
// targets, or nil (builtins, conversions, function values, interface
// methods).
func calleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			if fn != nil && types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch
			}
			return fn
		}
		// Qualified package call (pkg.F).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// SCCs returns the strongly connected components of the resolved call
// graph in callee-first order: every component appears before any
// component that calls into it. Reverse the slice for caller-first
// order. Within a component the node order is deterministic.
func (g *CallGraph) SCCs() [][]*FuncNode {
	nodes := g.Nodes()
	index := map[*FuncNode]int{}
	lowlink := map[*FuncNode]int{}
	onStack := map[*FuncNode]bool{}
	var stack []*FuncNode
	var sccs [][]*FuncNode
	next := 0

	// Iterative Tarjan: each frame remembers how far through the node's
	// call list it has advanced.
	type frame struct {
		n  *FuncNode
		ci int
	}
	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{n: root}}
		index[root], lowlink[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for f.ci < len(f.n.Calls) {
				site := f.n.Calls[f.ci]
				f.ci++
				w := site.Callee
				if w == nil {
					continue
				}
				if _, seen := index[w]; !seen {
					index[w], lowlink[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{n: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < lowlink[f.n] {
					lowlink[f.n] = index[w]
				}
			}
			if advanced {
				continue
			}
			if lowlink[f.n] == index[f.n] {
				var scc []*FuncNode
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == f.n {
						break
					}
				}
				sort.Slice(scc, func(i, j int) bool { return scc[i].Obj.FullName() < scc[j].Obj.FullName() })
				sccs = append(sccs, scc)
			}
			done := f.n
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if lowlink[done] < lowlink[p.n] {
					lowlink[p.n] = lowlink[done]
				}
			}
		}
	}
	// Tarjan emits components in callee-first order already: a
	// component is finalized only after everything it reaches has been.
	return sccs
}

// ReachableFrom returns the set of nodes reachable from roots through
// resolved call edges, roots included.
func (g *CallGraph) ReachableFrom(roots []*FuncNode) map[*FuncNode]bool {
	seen := map[*FuncNode]bool{}
	var stack []*FuncNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, site := range n.Calls {
			if site.Callee != nil && !seen[site.Callee] {
				seen[site.Callee] = true
				stack = append(stack, site.Callee)
			}
		}
	}
	return seen
}
