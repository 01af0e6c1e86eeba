package typegraph

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/types"
)

// refInfer is Definition 3.3 computed directly on the graph's nodes and
// edge lists: a recursive DFS that skips the decl edges of erased nodes
// and does not enter blocked nodes other than start, followed by the LUB
// of the visited concrete types. It shares no code with the dense index.
func refInfer(g *Graph, start NodeID, erased, blocked map[NodeID]bool) types.Type {
	var ts []types.Type
	seen := map[NodeID]bool{}
	var dfs func(id NodeID)
	dfs = func(id NodeID) {
		if seen[id] || (blocked[id] && id != start) {
			return
		}
		seen[id] = true
		n := g.Node(id)
		if n.Type != nil && id != start {
			ts = append(ts, n.Type)
		}
		if n.Rigid && id != start {
			ts = append(ts, n.Param)
		}
		for _, e := range g.Edges(id) {
			if e.Kind == InfEdge || (e.Kind == DeclEdge && !erased[id]) {
				dfs(e.To)
			}
		}
	}
	dfs(start)
	if len(ts) == 0 {
		return types.Bottom{}
	}
	return types.Lub(ts...)
}

// refPreserves is the reference definition of Preserves: every
// declaration node and non-rigid parameter occurrence that does not
// vanish is re-inferred from scratch under the erasure and compared with
// its erasure-free inference.
func refPreserves(g *Graph, cands ...*Candidate) bool {
	erased, vanished := map[NodeID]bool{}, map[NodeID]bool{}
	for _, c := range cands {
		for _, id := range c.EraseSet {
			erased[id] = true
		}
		for _, id := range c.VanishNodes {
			vanished[id] = true
		}
	}
	for i := range g.NumNodes() {
		id, n := NodeID(i), g.Node(NodeID(i))
		if (!n.IsDecl && n.Param == nil) || n.Rigid || vanished[id] {
			continue
		}
		if !refInfer(g, id, nil, nil).Equal(refInfer(g, id, erased, vanished)) {
			return false
		}
	}
	return true
}

// TestPreservesMatchesReference checks the region-limited Preserves
// against the reference definition on every method graph of generator
// seeds 0–199: on each single candidate, and on a seeded sample of up to
// 256 candidate combinations per graph.
func TestPreservesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	outcomes := map[bool]int{}
	for seed := int64(0); seed < 200; seed++ {
		a := Analyze(generatorProgram(seed), types.NewBuiltins())
		graphs := map[string]*Graph{}
		names := make([]string, len(a.Methods))
		for i, g := range a.BuildAll() {
			names[i] = a.Methods[i].Name
			graphs[names[i]] = g
		}
		sort.Strings(names) // a fixed order keeps the seeded sample fixed
		for _, name := range names {
			g := graphs[name]
			cands := g.Candidates
			check := func(combo []*Candidate) {
				got, want := Preserves(g, combo...), refPreserves(g, combo...)
				if got != want {
					ids := make([]string, len(combo))
					for i, c := range combo {
						ids[i] = g.Name(c.NodeID)
					}
					t.Fatalf("seed %d %s: Preserves(%v) = %v, reference %v", seed, name, ids, got, want)
				}
				outcomes[got]++
			}
			for _, c := range cands {
				check([]*Candidate{c})
			}
			if len(cands) < 2 {
				continue
			}
			for i := 0; i < 256; i++ {
				var combo []*Candidate
				for _, c := range cands {
					if rng.Intn(2) == 0 {
						combo = append(combo, c)
					}
				}
				check(combo)
			}
		}
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Fatalf("sample exercised only one outcome: %v", outcomes)
	}
}

// TestPreservesSeesGraphMutation queries a graph, mutates it in a way that
// flips the answer, and checks that Preserves answers for the new graph:
// node and edge insertion must drop the index built by the first query.
func TestPreservesSeesGraphMutation(t *testing.T) {
	b := types.NewBuiltins()

	// AddEdge: x keeps String through a new inf edge once its
	// annotation is erased.
	g := NewGraph()
	x := g.AddDeclNode("x")
	str := g.AddTypeNode(b.String)
	g.AddEdge(x, str, DeclEdge)
	c := &Candidate{Kind: VarDeclType, NodeID: x, EraseSet: []NodeID{x}}
	if Preserves(g, c) {
		t.Fatal("erasing x's only annotation must not preserve")
	}
	g.AddEdge(x, str, InfEdge)
	if got, want := Preserves(g, c), refPreserves(g, c); got != want || !got {
		t.Fatalf("after AddEdge: Preserves = %v, reference %v, want true", got, want)
	}

	// AddDeclNode and AddEdge: w, added after the first query with an
	// edge into the vanishing x, loses its type when x vanishes.
	g = NewGraph()
	x = g.AddDeclNode("x")
	str = g.AddTypeNode(b.String)
	g.AddEdge(x, str, DeclEdge)
	c = &Candidate{Kind: VarDeclType, NodeID: x, EraseSet: []NodeID{x}, VanishNodes: []NodeID{x}}
	if !Preserves(g, c) {
		t.Fatal("a vanished node with no dependents must preserve")
	}
	w := g.AddDeclNode("w")
	if got, want := Preserves(g, c), refPreserves(g, c); got != want || !got {
		t.Fatalf("after AddDeclNode: Preserves = %v, reference %v, want true", got, want)
	}
	g.AddEdge(w, x, InfEdge)
	if got, want := Preserves(g, c), refPreserves(g, c); got != want || got {
		t.Fatalf("after AddEdge into x: Preserves = %v, reference %v, want false", got, want)
	}
}
