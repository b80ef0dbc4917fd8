package analyze

import (
	"go/types"
	"path/filepath"
	"testing"
)

// loadEngineFixture loads testdata/engine and builds its call graph.
func loadEngineFixture(t *testing.T) (*Package, *CallGraph) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "engine"), "fixture/engine")
	if err != nil {
		t.Fatal(err)
	}
	return pkg, buildCallGraph([]*Package{pkg})
}

// fixtureFunc resolves a top-level function of the fixture to its node.
func fixtureFunc(t *testing.T, pkg *Package, g *CallGraph, name string) *FuncNode {
	t.Helper()
	obj, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("fixture has no function %s", name)
	}
	n := g.Node(obj)
	if n == nil {
		t.Fatalf("call graph has no node for %s", name)
	}
	return n
}

func calls(n *FuncNode, callee *FuncNode) bool {
	for _, site := range n.Calls {
		if site.Callee == callee {
			return true
		}
	}
	return false
}

func TestCallGraphEdges(t *testing.T) {
	pkg, g := loadEngineFixture(t)
	a := fixtureFunc(t, pkg, g, "A")
	b := fixtureFunc(t, pkg, g, "B")
	c := fixtureFunc(t, pkg, g, "C")
	if !calls(a, b) || !calls(b, c) {
		t.Error("missing A→B or B→C edge")
	}
	if calls(a, c) {
		t.Error("spurious A→C edge")
	}
}

func TestCallGraphClosureAttribution(t *testing.T) {
	pkg, g := loadEngineFixture(t)
	cl := fixtureFunc(t, pkg, g, "Closure")
	c := fixtureFunc(t, pkg, g, "C")
	if !calls(cl, c) {
		t.Error("call inside a func literal not attributed to the enclosing declaration")
	}
}

func TestCallGraphSCCs(t *testing.T) {
	pkg, g := loadEngineFixture(t)
	a := fixtureFunc(t, pkg, g, "A")
	b := fixtureFunc(t, pkg, g, "B")
	c := fixtureFunc(t, pkg, g, "C")
	loop := fixtureFunc(t, pkg, g, "Loop")
	loop2 := fixtureFunc(t, pkg, g, "Loop2")

	sccs := g.SCCs()
	index := map[*FuncNode]int{}
	for i, scc := range sccs {
		for _, n := range scc {
			index[n] = i
		}
	}
	// Callee-first: C's component before B's before A's.
	if !(index[c] < index[b] && index[b] < index[a]) {
		t.Errorf("SCC order not callee-first: C=%d B=%d A=%d", index[c], index[b], index[a])
	}
	if index[loop] != index[loop2] {
		t.Errorf("mutual recursion split across SCCs: Loop=%d Loop2=%d", index[loop], index[loop2])
	}
}

func TestCallGraphReachableFrom(t *testing.T) {
	pkg, g := loadEngineFixture(t)
	a := fixtureFunc(t, pkg, g, "A")
	c := fixtureFunc(t, pkg, g, "C")
	d := fixtureFunc(t, pkg, g, "D")
	reach := g.ReachableFrom([]*FuncNode{a})
	if !reach[a] || !reach[c] {
		t.Error("ReachableFrom(A) misses A or its transitive callee C")
	}
	if reach[d] {
		t.Error("ReachableFrom(A) includes D, which only Mut calls")
	}
}
