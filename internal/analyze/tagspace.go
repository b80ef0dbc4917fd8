package analyze

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// TagSpace checks the message-tag discipline of every Send/Recv/Irecv
// call site in the module, interprocedurally: the tag argument is
// evaluated through the constant-propagation fact, so a helper that
// receives its tag base as a parameter is checked once per caller-
// supplied base. Three contracts are enforced:
//
//  1. User tags must be non-negative (the negative space belongs to the
//     runtime's internal collectives; mpi panics at run time, this
//     catches it at vet time).
//  2. A concrete tag value must not be used by two different packages —
//     a cross-subsystem collision would let unrelated exchanges match
//     each other's messages.
//  3. Tags at sites on the step path (call-graph-reachable from a
//     decomp Advance* root) must be members of the
//     decomp.ExchangeTags() allocation, and every allocated tag must be
//     used somewhere — ExchangeTags is the tag-space registry the
//     fault-injection and observability layers key on, so drift in
//     either direction is a bug.
var TagSpace = &Analyzer{
	Name: "tag-space",
	Doc: "Send/Recv/Irecv tag arguments, resolved interprocedurally, must be non-negative, " +
		"collision-free across subsystems, and consistent with the decomp.ExchangeTags() allocation.",
	RunModule: runTagSpace,
}

// tagSite is one point-to-point call site with its resolved tag values.
type tagSite struct {
	node *FuncNode
	call *ast.CallExpr
	op   string // Send, Recv, Irecv
	vals ValueSet
}

func runTagSpace(mp *ModulePass) error {
	cp, err := mp.Module.constProp()
	if err != nil {
		return err
	}
	g := cp.Graph()

	var sites []tagSite
	for _, n := range g.Nodes() {
		for _, site := range n.Calls {
			op, ok := commTagCall(n.Pkg.Info, site.Call)
			if !ok {
				continue
			}
			sites = append(sites, tagSite{
				node: n,
				call: site.Call,
				op:   op,
				vals: cp.EvalInt(n, site.Call.Args[1]),
			})
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].call.Pos() < sites[j].call.Pos() })

	// 1. Negative user tags.
	for _, s := range sites {
		for _, v := range s.vals.Values {
			if v.V < 0 {
				mp.Reportf(s.node.Pkg, s.call.Args[1].Pos(),
					"%s uses negative tag %d (from %s); negative tags are reserved for runtime collectives",
					s.op, v.V, v.Origin)
			}
		}
	}

	// 2. Cross-subsystem collisions: the same concrete tag reached from
	// sites in two different packages.
	type tagUse struct {
		site tagSite
		val  Value
	}
	byTag := map[int64][]tagUse{}
	for _, s := range sites {
		for _, v := range s.vals.Values {
			byTag[v.V] = append(byTag[v.V], tagUse{s, v})
		}
	}
	tags := make([]int64, 0, len(byTag))
	for t := range byTag {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	for _, t := range tags {
		uses := byTag[t]
		pkgs := map[string]bool{}
		for _, u := range uses {
			pkgs[u.site.node.Pkg.Path] = true
		}
		if len(pkgs) < 2 {
			continue
		}
		names := make([]string, 0, len(pkgs))
		for p := range pkgs {
			names = append(names, p)
		}
		sort.Strings(names)
		for _, u := range uses {
			mp.Reportf(u.site.node.Pkg, u.site.call.Args[1].Pos(),
				"tag %d (from %s) collides across subsystems: used by %s",
				t, u.val.Origin, strings.Join(names, " and "))
		}
	}

	// 3. ExchangeTags consistency. Find the allocation function in a
	// package named decomp; absent one (non-decomp fixture modules) the
	// check is vacuous.
	var exNode *FuncNode
	for _, n := range g.Nodes() {
		if n.Pkg.Types.Name() == "decomp" && n.Decl.Name.Name == "ExchangeTags" && n.Decl.Recv == nil {
			exNode = n
			break
		}
	}
	if exNode == nil {
		return nil
	}
	allocated, ok := EvalIntList(exNode)
	if !ok {
		mp.Reportf(exNode.Pkg, exNode.Decl.Pos(),
			"ExchangeTags body is not statically evaluable; keep it to constant appends so the tag registry stays checkable")
		return nil
	}
	allocSet := map[int64]Value{}
	for _, v := range allocated {
		allocSet[v.V] = v
	}

	// Step-path roots: the Advance entry points of the decomp package.
	var roots []*FuncNode
	for _, n := range g.Nodes() {
		if n.Pkg == exNode.Pkg && strings.HasPrefix(n.Decl.Name.Name, "Advance") {
			roots = append(roots, n)
		}
	}
	reachable := g.ReachableFrom(roots)

	used := map[int64]bool{}
	for _, s := range sites {
		for _, v := range s.vals.Values {
			used[v.V] = true
		}
		if !reachable[s.node] || s.node.Pkg != exNode.Pkg {
			continue
		}
		for _, v := range s.vals.Values {
			if _, ok := allocSet[v.V]; !ok {
				mp.Reportf(s.node.Pkg, s.call.Args[1].Pos(),
					"%s on the step path uses tag %d (from %s) outside the ExchangeTags() allocation",
					s.op, v.V, v.Origin)
			}
		}
	}
	for _, v := range allocated {
		if !used[v.V] {
			mp.Reportf(exNode.Pkg, exNode.Decl.Pos(),
				"ExchangeTags() allocates tag %d (%s) but no Send/Recv/Irecv site uses it; shrink the allocation",
				v.V, v.Origin)
		}
	}
	return nil
}

// commTagCall recognizes a point-to-point call with a tag argument:
// a method named Send, Recv or Irecv, declared in a package named mpi,
// whose second argument is the integer tag.
func commTagCall(info *types.Info, call *ast.CallExpr) (op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) < 3 {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Send" && name != "Recv" && name != "Irecv" {
		return "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Name() != "mpi" {
		return "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil || sig.Params().Len() < 3 {
		return "", false
	}
	if !isIntKind(sig.Params().At(1).Type()) {
		return "", false
	}
	return name, true
}
