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
// Ownership: a node is a NodeID handle, its position in insertion order,
// and edges and candidates name nodes by handle. Only the nodes the
// analysis deduplicates by name keep a key (declarations, ground types
// and rigid scope parameters); occurrence nodes are appended without one,
// and every name is rendered on demand by Name, for output. A graph is
// read-only once built; Preserves, RelevantTo, Infer and a Search's
// queries write only its epoch-stamped query index. A Search keeps its
// masks and its memo of failures itself, and rebuilds them when the graph
// has changed since its last query. A graph describes the program as it
// was when built: a call's graph reads the callee's declared return type,
// so TEM builds each graph just before it erases in that method, and
// never keeps one past it.
package typegraph

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/types"
)

// EdgeKind labels a type-graph edge (L = {decl, inf, def}).
type EdgeKind uint8

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

// NodeID is a node's handle: its position in the graph's insertion order.
type NodeID uint32

// Node is a vertex of the type graph. Exactly one of the roles applies:
//
//   - a declaration node (IsDecl) for variables, fields, and virtual
//     return-value declarations;
//   - a concrete type node (Type != nil), either a shared ground type or a
//     type-application occurrence;
//   - a type-parameter occurrence node (Param != nil) such as B.T#7.
type Node struct {
	Type  types.Type
	Param *types.Parameter

	// label, owner and occ make up the node's name (see Graph.Name).
	label, owner string
	occ          int32
	// first and last are the node's first and last out-edges, as
	// positions in the graph's edge list (0 for none).
	first, last uint32

	IsDecl bool
	// Rigid marks an in-scope declaration-site type parameter (a class or
	// method parameter visible where the method body mentions it). Unlike
	// occurrence nodes, a rigid parameter is itself a valid type the
	// compiler knows — it acts as a concrete source for inference.
	Rigid bool
}

// checked reports whether Preserves checks the node: declarations and
// parameter occurrences, but not rigid scope parameters.
func (nd *Node) checked() bool { return (nd.IsDecl || nd.Param != nil) && !nd.Rigid }

// Edge is a directed, labelled edge.
type Edge struct {
	To   NodeID
	Kind EdgeKind
}

// link is an edge in the graph's edge list, chained to its source's next
// out-edge (0 ends the chain).
type link struct {
	to   NodeID
	next uint32
	kind EdgeKind
}

// Graph is a type graph for one method (the analysis is intra-procedural).
type Graph struct {
	nodes []Node
	keys  map[string]NodeID
	// links holds every edge in insertion order after an unused entry at
	// position 0, so that 0 can end a chain.
	links []link

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
	return &Graph{keys: map[string]NodeID{}, links: make([]link, 1, 16)}
}

// Node returns node n. The pointer is valid until the next insertion.
func (g *Graph) Node(n NodeID) *Node { return &g.nodes[n] }

// Edges returns the out-edges of a node in insertion order.
func (g *Graph) Edges(n NodeID) []Edge {
	var out []Edge
	for e := g.nodes[n].first; e != 0; e = g.links[e].next {
		out = append(out, Edge{g.links[e].to, g.links[e].kind})
	}
	return out
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.links) - 1 }

// Name renders node n's name: a keyed node's key, and for an occurrence
// its label (an application's type, a parameter occurrence's parameter
// name), qualified by its owner, followed by "#" and its occurrence
// number — A<String>#3, A.T#3, if#4, B.f#5.
func (g *Graph) Name(n NodeID) string {
	nd := &g.nodes[n]
	if nd.occ == 0 {
		return nd.label
	}
	label := nd.label
	switch {
	case nd.Type != nil:
		label = nd.Type.String()
	case nd.Param != nil:
		label = nd.Param.ParamName
	}
	if nd.owner != "" {
		label = nd.owner + "." + label
	}
	return label + "#" + strconv.Itoa(int(nd.occ))
}

// add appends a node and returns its handle. Occurrence nodes are added
// this way, without a key: each is unique by its occurrence number.
func (g *Graph) add(nd Node) NodeID {
	g.invalidate()
	g.nodes = append(g.nodes, nd)
	return NodeID(len(g.nodes) - 1)
}

// addKeyed returns the node with the given key, adding nd under it first
// when there is none.
func (g *Graph) addKeyed(key string, nd Node) NodeID {
	if n, ok := g.keys[key]; ok {
		return n
	}
	nd.label = key
	n := g.add(nd)
	g.keys[key] = n
	return n
}

// AddDeclNode adds (or returns) the declaration node with the given key.
func (g *Graph) AddDeclNode(key string) NodeID {
	return g.addKeyed(key, Node{IsDecl: true})
}

// AddTypeNode adds (or returns) a shared concrete type node keyed by the
// type's rendering.
func (g *Graph) AddTypeNode(t types.Type) NodeID {
	return g.addKeyed(t.String(), Node{Type: t})
}

// AddScopeParamNode adds (or returns) the shared node for a rigid in-scope
// type parameter.
func (g *Graph) AddScopeParamNode(p *types.Parameter) NodeID {
	return g.addKeyed("scope:"+p.ID(), Node{Param: p, Rigid: true})
}

// AddEdge inserts a directed edge, deduplicating exact repeats.
func (g *Graph) AddEdge(from, to NodeID, kind EdgeKind) {
	src := &g.nodes[from]
	for e := src.first; e != 0; e = g.links[e].next {
		if g.links[e].to == to && g.links[e].kind == kind {
			return
		}
	}
	g.invalidate()
	e := uint32(len(g.links))
	g.links = append(g.links, link{to: to, kind: kind})
	if src.last == 0 {
		src.first = e
	} else {
		g.links[src.last].next = e
	}
	src.last = e
}

// Infer implements Definition 3.3, infer(G, n) = ⊔ visitedTypes(G, n),
// on the graph with the given candidates erased (Definition 3.4).
func (g *Graph) Infer(start NodeID, erased ...*Candidate) types.Type {
	ix := g.dense()
	ix.stamp(erased, false)
	return ix.infer(start, true)
}

// index is the flat form of a graph that queries run on: each node's decl
// and inf arcs in insertion order and their reverse (def edges are never
// walked), the nodes Preserves checks in insertion order, and memoized
// baseline inferences. A node is erased, vanished or marked while its
// stamp equals epoch, and seen while its stamp equals walk. The counters
// only grow and are 64-bit, so a stale stamp never matches and the arrays
// are never cleared.
type index struct {
	nodes []Node
	// The arcs of node n are arcs[outAt[n]:outAt[n+1]], and the nodes
	// with an arc into n are rev[revAt[n]:revAt[n+1]].
	outAt, revAt []uint32
	arcs         []arc
	rev          []NodeID
	checked      []NodeID
	base         []types.Type

	epoch, walk                    uint64
	erased, vanished, marked, seen []uint64
	ts                             []types.Type
}

type arc struct {
	to   NodeID
	decl bool
}

func (g *Graph) dense() *index {
	if g.ix != nil {
		return g.ix
	}
	n := len(g.nodes)
	ix := &index{nodes: g.nodes, base: make([]types.Type, n)}
	at := make([]uint32, 2*(n+1))
	ix.outAt, ix.revAt = at[:n+1], at[n+1:]
	checked := 0
	for i := range g.nodes {
		nd := &g.nodes[i]
		if nd.checked() {
			checked++
		}
		for e := nd.first; e != 0; e = g.links[e].next {
			if l := g.links[e]; l.kind != DefEdge {
				ix.outAt[i+1]++
				ix.revAt[l.to+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		ix.outAt[i+1] += ix.outAt[i]
		ix.revAt[i+1] += ix.revAt[i]
	}
	arcs := ix.outAt[n]
	ix.arcs = make([]arc, 0, arcs)
	ids := make([]NodeID, int(arcs)+checked)
	ix.rev, ix.checked = ids[:arcs:arcs], ids[arcs:arcs]
	// fill[n] counts the reverse arcs of n placed so far; it borrows the
	// seen stamps, which are zero until the first walk.
	st := make([]uint64, 4*n)
	ix.erased, ix.vanished, ix.marked, ix.seen = st[:n:n], st[n:2*n:2*n], st[2*n:3*n:3*n], st[3*n:]
	fill := ix.seen
	for i := range g.nodes {
		nd := &g.nodes[i]
		if nd.checked() {
			ix.checked = append(ix.checked, NodeID(i))
		}
		for e := nd.first; e != 0; e = g.links[e].next {
			if l := g.links[e]; l.kind != DefEdge {
				ix.arcs = append(ix.arcs, arc{l.to, l.kind == DeclEdge})
				ix.rev[uint64(ix.revAt[l.to])+fill[l.to]] = NodeID(i)
				fill[l.to]++
			}
		}
	}
	clear(fill)
	g.ix = ix
	return ix
}

// out returns n's decl and inf arcs.
func (ix *index) out(n NodeID) []arc { return ix.arcs[ix.outAt[n]:ix.outAt[n+1]] }

// into returns the nodes with a decl or inf arc into n.
func (ix *index) into(n NodeID) []NodeID { return ix.rev[ix.revAt[n]:ix.revAt[n+1]] }

// stamp starts a query under the erasure of cands and, with vanish, the
// removal of their vanished nodes. It marks every node that reaches a
// stamped node through decl or inf edges; the walk from any other node
// meets nothing stamped, so it is the baseline walk and infers the
// baseline type.
func (ix *index) stamp(cands []*Candidate, vanish bool) {
	ix.epoch++
	for _, c := range cands {
		ix.stampOne(c, vanish)
	}
}

// stampOne adds one candidate's erasure to the current query.
func (ix *index) stampOne(c *Candidate, vanish bool) {
	for _, n := range c.EraseSet {
		ix.erased[n] = ix.epoch
		ix.mark(n)
	}
	if vanish {
		for _, n := range c.VanishNodes {
			ix.vanished[n] = ix.epoch
			ix.mark(n)
		}
	}
}

// check runs the preservation check of the current query (stamped with
// vanish): every marked checked node that does not vanish must infer its
// baseline type. It returns the first node that does not, if any.
func (ix *index) check() (fail NodeID, ok bool) {
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
func (ix *index) mark(n NodeID) {
	if ix.marked[n] != ix.epoch {
		ix.marked[n] = ix.epoch
		for _, from := range ix.into(n) {
			ix.mark(from)
		}
	}
}

// infer joins the concrete types a depth-first walk from start reaches
// through decl and inf edges, under the current query's stamps when
// erase is set. The walk meets types in edge insertion order, so the
// LUB's left fold sees them in the same order on every call.
func (ix *index) infer(start NodeID, erase bool) types.Type {
	ix.walk++
	ix.ts = ix.ts[:0]
	ix.visit(start, start, erase)
	if len(ix.ts) == 0 {
		return types.Bottom{}
	}
	return types.Lub(ix.ts...)
}

func (ix *index) visit(n, start NodeID, erase bool) {
	if ix.seen[n] == ix.walk || (erase && n != start && ix.vanished[n] == ix.epoch) {
		return
	}
	ix.seen[n] = ix.walk
	if nd := &ix.nodes[n]; n != start && nd.Type != nil {
		ix.ts = append(ix.ts, nd.Type)
	} else if n != start && nd.Rigid {
		ix.ts = append(ix.ts, nd.Param) // a rigid scope parameter is itself a known type
	}
	declErased := erase && ix.erased[n] == ix.epoch
	for _, a := range ix.out(n) {
		if !a.decl || !declErased {
			ix.visit(a.to, start, erase)
		}
	}
}

// Dot renders the graph in Graphviz format, nodes and their out-edges in
// name order; decl nodes are red boxes, type nodes blue, matching Figure
// 6's presentation.
func (g *Graph) Dot() string {
	names := make([]string, len(g.nodes))
	order := make([]NodeID, len(g.nodes))
	for i := range g.nodes {
		names[i], order[i] = g.Name(NodeID(i)), NodeID(i)
	}
	slices.SortStableFunc(order, func(a, b NodeID) int { return strings.Compare(names[a], names[b]) })
	var b strings.Builder
	b.WriteString("digraph typegraph {\n")
	for _, n := range order {
		shape, color := "ellipse", "blue"
		if g.nodes[n].IsDecl {
			shape, color = "box", "red"
		}
		fmt.Fprintf(&b, "  %q [shape=%s,color=%s];\n", names[n], shape, color)
	}
	for _, n := range order {
		for _, e := range g.Edges(n) {
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", names[n], names[e.To], e.Kind)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
