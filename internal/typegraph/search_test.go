package typegraph

import (
	"testing"

	"repro/internal/types"
)

// TestSearchMatchesPreserves checks the memoized Search against Preserves
// on every method graph of generator seeds 0–199, over the candidates
// that preserve on their own: on every subset when there are at most 10,
// and otherwise in TEM's visiting order (largest combinations first,
// stopping at the first that preserves) within TEM's 4096-check budget
// per program.
func TestSearchMatchesPreserves(t *testing.T) {
	const budget = 4096
	checks, memo := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		a := Analyze(genProgram(seed), types.NewBuiltins())
		left := budget
		for m, g := range a.BuildAll() {
			var cands []*Candidate
			for _, c := range g.Candidates {
				if Preserves(g, c) {
					cands = append(cands, c)
				}
			}
			s := NewSearch(g, cands)
			every := len(cands) <= 10
			falses := 0
			for k := len(cands); k >= 0 && (every || k >= 1); k-- {
				stop := false
				eachCombination(len(cands), k, func(idx []int) bool {
					if !every {
						if left == 0 {
							stop = true
							return false
						}
						left--
					}
					combo := make([]*Candidate, len(idx))
					for i, j := range idx {
						combo[i] = cands[j]
					}
					got, want := s.Preserves(idx), Preserves(g, combo...)
					if got != want {
						t.Fatalf("seed %d %s: Search.Preserves(%v) = %v, Preserves %v", seed, a.Methods[m].Name, idx, got, want)
					}
					checks++
					if !got {
						falses++
					}
					stop = got && !every
					return !stop
				})
				if stop {
					break
				}
			}
			if s.words > 0 { // s was queried
				memo += falses - len(s.fails)/(2*s.words)
			}
		}
	}
	if memo == 0 {
		t.Fatalf("the memo answered none of %d checks", checks)
	}
	t.Logf("%d checks, %d answered from the memo", checks, memo)
}

// eachCombination calls visit with every size-k index combination of
// [0, n) in lexicographic order, as TEM visits them, until visit returns
// false.
func eachCombination(n, k int, visit func([]int) bool) {
	idx := make([]int, k)
	var rec func(i, from int) bool
	rec = func(i, from int) bool {
		if i == k {
			return visit(idx)
		}
		for j := from; j <= n-k+i; j++ {
			idx[i] = j
			if !rec(i+1, j+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}

// TestSearchDoesNotPruneSupersets: S = {a} fails at x, but S ∪ {c}
// preserves because c vanishes x. The memo must not answer S ∪ {c} from
// S's failure, although it does answer S ∪ {d} for a d that x does not
// reach.
func TestSearchDoesNotPruneSupersets(t *testing.T) {
	b := types.NewBuiltins()
	g := NewGraph()
	str := g.AddTypeNode(b.String)
	x := g.AddDeclNode("x")
	g.AddEdge(x, str, DeclEdge)
	y := g.AddDeclNode("y")
	g.AddEdge(y, str, DeclEdge)
	g.AddEdge(y, str, InfEdge)
	a := &Candidate{Kind: VarDeclType, NodeID: x, EraseSet: []NodeID{x}}
	c := &Candidate{Kind: VarDeclType, NodeID: x, VanishNodes: []NodeID{x}}
	d := &Candidate{Kind: VarDeclType, NodeID: y, EraseSet: []NodeID{y}}
	cands := []*Candidate{a, c, d}
	s := NewSearch(g, cands)
	for _, q := range []struct {
		idx  []int
		want bool
	}{{[]int{0}, false}, {[]int{0, 1}, true}, {[]int{0, 2}, false}, {[]int{0, 1, 2}, true}} {
		combo := make([]*Candidate, len(q.idx))
		for i, j := range q.idx {
			combo[i] = cands[j]
		}
		if got, ref := s.Preserves(q.idx), Preserves(g, combo...); got != q.want || ref != q.want {
			t.Fatalf("Search.Preserves(%v) = %v, Preserves %v, want %v", q.idx, got, ref, q.want)
		}
	}
	if n := len(s.fails) / (2 * s.words); n != 1 {
		t.Fatalf("recorded %d failures, want 1: {a, d} is answered from {a}'s", n)
	}
}

// TestSearchSeesGraphMutation is TestPreservesSeesGraphMutation for a
// Search: a graph changed after a query must be answered afresh, with
// neither its old masks nor its old failures.
func TestSearchSeesGraphMutation(t *testing.T) {
	b := types.NewBuiltins()

	// AddEdge: the recorded failure of {c} no longer holds.
	g := NewGraph()
	x := g.AddDeclNode("x")
	str := g.AddTypeNode(b.String)
	g.AddEdge(x, str, DeclEdge)
	c := &Candidate{Kind: VarDeclType, NodeID: x, EraseSet: []NodeID{x}}
	s := NewSearch(g, []*Candidate{c})
	if s.Preserves([]int{0}) {
		t.Fatal("erasing x's only annotation must not preserve")
	}
	g.AddEdge(x, str, InfEdge)
	if !s.Preserves([]int{0}) {
		t.Fatal("after AddEdge: Search answered from a failure of the old graph")
	}

	// AddDeclNode and AddEdge: the new node w needs masks the old graph
	// lacked.
	g = NewGraph()
	x = g.AddDeclNode("x")
	str = g.AddTypeNode(b.String)
	g.AddEdge(x, str, DeclEdge)
	c = &Candidate{Kind: VarDeclType, NodeID: x, EraseSet: []NodeID{x}, VanishNodes: []NodeID{x}}
	s = NewSearch(g, []*Candidate{c})
	if !s.Preserves([]int{0}) {
		t.Fatal("a vanished node with no dependents must preserve")
	}
	w := g.AddDeclNode("w")
	g.AddEdge(w, x, InfEdge)
	if s.Preserves([]int{0}) {
		t.Fatal("after AddDeclNode: w loses its type when x vanishes")
	}
	if s.Preserves([]int{0}) {
		t.Fatal("after AddDeclNode: the recorded failure must answer the same query")
	}
}
