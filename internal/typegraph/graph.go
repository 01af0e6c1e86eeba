// Package typegraph implements the type-information model of Section 3.3:
// the type graph, the intra-procedural type inference analysis that builds
// it (Figure 5), and the type preservation / type relevance properties
// (Definitions 3.3–3.7) that the TEM and TOM mutations rely on.
//
// A type graph G = (V, E) has declaration nodes and type nodes, and edges
// labelled decl (explicitly declared types), inf (inferred types and
// type-parameter dependencies), and def (a type application containing its
// type parameters). Type-parameter *occurrences* — one per syntactic type
// application — are the pivotal nodes: erasing an annotation removes the
// decl edges of its parameter occurrences, and preservation asks whether
// every occurrence still reaches a concrete type.
//
// Ownership: a graph is read-only once built; Preserves, RelevantTo,
// Infer and a Search's queries write only its epoch-stamped query index.
// A Search keeps its masks and its memo of failures itself, and rebuilds
// them when the graph has changed since its last query. A graph describes
// the program as it was when built: a call's graph reads the callee's
// declared return type, so TEM builds each graph just before it erases in
// that method, and never keeps one past it.
package typegraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/types"
)

// EdgeKind labels a type-graph edge (L = {decl, inf, def}).
type EdgeKind int

const (
	// DeclEdge: the type of the source node is explicitly declared.
	DeclEdge EdgeKind = iota
	// InfEdge: the type of the source node is inferred from the target.
	InfEdge
	// DefEdge: the source type application contains the target parameter.
	DefEdge
)

func (k EdgeKind) String() string {
	switch k {
	case DeclEdge:
		return "decl"
	case InfEdge:
		return "inf"
	default:
		return "def"
	}
}

// Node is a vertex of the type graph. Exactly one of the roles applies:
//
//   - a declaration node (IsDecl) for variables, fields, and virtual
//     return-value declarations;
//   - a concrete type node (Type != nil), either a shared ground type or a
//     type-application occurrence;
//   - a type-parameter occurrence node (Param != nil) such as B.T:7.
type Node struct {
	ID     string
	IsDecl bool
	Type   types.Type
	Param  *types.Parameter
	// Rigid marks an in-scope declaration-site type parameter (a class or
	// method parameter visible where the method body mentions it). Unlike
	// occurrence nodes, a rigid parameter is itself a valid type the
	// compiler knows — it acts as a concrete source for inference.
	Rigid bool
}

func (n *Node) String() string { return n.ID }

// Edge is a directed, labelled edge.
type Edge struct {
	To   string
	Kind EdgeKind
}

// Graph is a type graph for one method (the analysis is intra-procedural).
type Graph struct {
	nodes map[string]*Node
	out   map[string][]Edge

	// Candidates are the erasable/overwritable program points discovered
	// while building the graph (double-circled and shadowed nodes of
	// Figure 6).
	Candidates []*Candidate

	// ix is built on the first query and dropped on any mutation. A
	// graph is built and queried by one goroutine, so it needs no lock.
	ix *index
}

func (g *Graph) invalidate() { g.ix = nil }

// NewGraph returns an empty type graph.
func NewGraph() *Graph {
	return &Graph{nodes: map[string]*Node{}, out: map[string][]Edge{}}
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id string) *Node { return g.nodes[id] }

// Nodes returns all node IDs in sorted order. Callers must not mutate
// the returned slice: it belongs to the graph's index.
func (g *Graph) Nodes() []string { return g.dense().names }

// Edges returns the out-edges of a node.
func (g *Graph) Edges(id string) []Edge { return g.out[id] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

func (g *Graph) ensure(n *Node) *Node {
	if existing, ok := g.nodes[n.ID]; ok {
		return existing
	}
	g.invalidate()
	g.nodes[n.ID] = n
	return n
}

// AddDeclNode adds (or returns) a declaration node.
func (g *Graph) AddDeclNode(id string) *Node {
	return g.ensure(&Node{ID: id, IsDecl: true})
}

// AddTypeNode adds (or returns) a shared concrete type node keyed by the
// type's rendering.
func (g *Graph) AddTypeNode(t types.Type) *Node {
	return g.ensure(&Node{ID: t.String(), Type: t})
}

// AddAppNode adds a type-application occurrence node with a unique ID.
func (g *Graph) AddAppNode(id string, t types.Type) *Node {
	return g.ensure(&Node{ID: id, Type: t})
}

// AddParamNode adds a type-parameter occurrence node.
func (g *Graph) AddParamNode(id string, p *types.Parameter) *Node {
	return g.ensure(&Node{ID: id, Param: p})
}

// AddScopeParamNode adds (or returns) the shared node for a rigid in-scope
// type parameter.
func (g *Graph) AddScopeParamNode(id string, p *types.Parameter) *Node {
	return g.ensure(&Node{ID: id, Param: p, Rigid: true})
}

// AddEdge inserts a directed edge, deduplicating exact repeats.
func (g *Graph) AddEdge(from, to string, kind EdgeKind) {
	for _, e := range g.out[from] {
		if e.To == to && e.Kind == kind {
			return
		}
	}
	g.invalidate()
	g.out[from] = append(g.out[from], Edge{To: to, Kind: kind})
}

// Infer implements Definition 3.3, infer(G, n) = ⊔ visitedTypes(G, n),
// on the graph with the given candidates erased (Definition 3.4).
func (g *Graph) Infer(start string, erased ...*Candidate) types.Type {
	ix := g.dense()
	n, ok := ix.id[start]
	if !ok {
		return types.Bottom{}
	}
	ix.stamp(erased, false)
	return ix.infer(n, true)
}

// index is the dense form of a graph that queries run on: node IDs in
// sorted order, each node's decl and inf edges in insertion order and
// their reverse (def edges and edges touching a missing node are never
// walked), the nodes Preserves checks, and memoized baseline inferences.
// A node is erased, vanished or marked while its stamp equals epoch, and
// seen while its stamp equals walk. The counters only grow and are 64-bit,
// so a stale stamp never matches and the arrays are never cleared.
type index struct {
	names   []string
	id      map[string]uint32
	nodes   []*Node
	out     [][]arc
	rev     [][]uint32
	checked []uint32
	base    []types.Type
	cands   map[*Candidate]candIndex

	epoch, walk                    uint64
	erased, vanished, marked, seen []uint64
	ts                             []types.Type
}

type arc struct {
	to   uint32
	decl bool
}

// candIndex is a candidate's erase and vanish sets as dense node IDs.
type candIndex struct{ erase, vanish []uint32 }

func (g *Graph) dense() *index {
	if g.ix != nil {
		return g.ix
	}
	names := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		names = append(names, id)
	}
	sort.Strings(names)
	n := len(names)
	st := make([]uint64, 4*n)
	ix := &index{names: names, id: make(map[string]uint32, n), nodes: make([]*Node, n),
		out: make([][]arc, n), rev: make([][]uint32, n), base: make([]types.Type, n),
		cands: map[*Candidate]candIndex{}, erased: st[:n:n], vanished: st[n : 2*n : 2*n],
		marked: st[2*n : 3*n : 3*n], seen: st[3*n:]}
	for i, id := range names {
		ix.id[id], ix.nodes[i] = uint32(i), g.nodes[id]
	}
	for i, id := range names {
		if nd := ix.nodes[i]; (nd.IsDecl || nd.Param != nil) && !nd.Rigid {
			ix.checked = append(ix.checked, uint32(i))
		}
		for _, e := range g.out[id] {
			if to, ok := ix.id[e.To]; ok && e.Kind != DefEdge {
				ix.out[i] = append(ix.out[i], arc{to, e.Kind == DeclEdge})
				ix.rev[to] = append(ix.rev[to], uint32(i))
			}
		}
	}
	g.ix = ix
	return ix
}

// stamp starts a query under the erasure of cands and, with vanish, the
// removal of their vanished nodes. It marks every node that reaches a
// stamped node through decl or inf edges; the walk from any other node
// meets nothing stamped, so it is the baseline walk and infers the
// baseline type.
func (ix *index) stamp(cands []*Candidate, vanish bool) {
	ix.epoch++
	for _, c := range cands {
		ix.stampOne(ix.candidate(c), vanish)
	}
}

// stampOne adds one candidate's erasure to the current query.
func (ix *index) stampOne(ci candIndex, vanish bool) {
	for _, n := range ci.erase {
		ix.erased[n] = ix.epoch
		ix.mark(n)
	}
	if vanish {
		for _, n := range ci.vanish {
			ix.vanished[n] = ix.epoch
			ix.mark(n)
		}
	}
}

// candidate returns c's erase and vanish sets as dense node IDs.
func (ix *index) candidate(c *Candidate) candIndex {
	ci, ok := ix.cands[c]
	if !ok {
		ci = candIndex{ix.lookup(c.EraseSet), ix.lookup(c.VanishNodes)}
		ix.cands[c] = ci
	}
	return ci
}

// check runs the preservation check of the current query (stamped with
// vanish): every marked checked node that does not vanish must infer its
// baseline type. It returns the first node that does not, if any.
func (ix *index) check() (fail uint32, ok bool) {
	for _, n := range ix.checked {
		if ix.marked[n] != ix.epoch || ix.vanished[n] == ix.epoch {
			continue
		}
		if ix.base[n] == nil {
			ix.base[n] = ix.infer(n, false)
		}
		if !ix.base[n].Equal(ix.infer(n, true)) {
			return n, false
		}
	}
	return 0, true
}

// mark marks n and every node that reaches it.
func (ix *index) mark(n uint32) {
	if ix.marked[n] != ix.epoch {
		ix.marked[n] = ix.epoch
		for _, from := range ix.rev[n] {
			ix.mark(from)
		}
	}
}

func (ix *index) lookup(ids []string) []uint32 {
	out := make([]uint32, 0, len(ids))
	for _, id := range ids {
		if n, ok := ix.id[id]; ok {
			out = append(out, n)
		}
	}
	return out
}

// infer joins the concrete types a depth-first walk from start reaches
// through decl and inf edges, under the current query's stamps when
// erase is set. The walk meets types in edge insertion order, so the
// LUB's left fold sees them in the same order on every call.
func (ix *index) infer(start uint32, erase bool) types.Type {
	ix.walk++
	ix.ts = ix.ts[:0]
	ix.visit(start, start, erase)
	if len(ix.ts) == 0 {
		return types.Bottom{}
	}
	return types.Lub(ix.ts...)
}

func (ix *index) visit(n, start uint32, erase bool) {
	if ix.seen[n] == ix.walk || (erase && n != start && ix.vanished[n] == ix.epoch) {
		return
	}
	ix.seen[n] = ix.walk
	if nd := ix.nodes[n]; n != start && nd.Type != nil {
		ix.ts = append(ix.ts, nd.Type)
	} else if n != start && nd.Rigid {
		ix.ts = append(ix.ts, nd.Param) // a rigid scope parameter is itself a known type
	}
	declErased := erase && ix.erased[n] == ix.epoch
	for _, a := range ix.out[n] {
		if !a.decl || !declErased {
			ix.visit(a.to, start, erase)
		}
	}
}

// Dot renders the graph in Graphviz format; decl nodes are red boxes, type
// nodes blue, matching Figure 6's presentation.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph typegraph {\n")
	for _, id := range g.Nodes() {
		n := g.nodes[id]
		shape, color := "ellipse", "blue"
		if n.IsDecl {
			shape, color = "box", "red"
		}
		fmt.Fprintf(&b, "  %q [shape=%s,color=%s];\n", id, shape, color)
	}
	for _, id := range g.Nodes() {
		for _, e := range g.out[id] {
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", id, e.To, e.Kind)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
