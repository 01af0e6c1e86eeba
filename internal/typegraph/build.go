package typegraph

import (
	"repro/internal/checker"
	"repro/internal/ir"
	"repro/internal/types"
)

// Analysis holds everything needed to build type graphs for a program: the
// declaration index, the per-expression static types computed by the
// reference checker ("getType(e)" in Figure 5's rules), and the program's
// methods.
type Analysis struct {
	Env       *checker.Env
	ExprTypes map[ir.Expr]types.Type
	Result    *checker.Result
	// Methods lists the functions and class methods in declaration
	// order, the mutations' "for m ∈ Methods(P)".
	Methods []Method
}

// Method is one method of an analysed program: Name is "f" or "Class.m",
// and Owner is the enclosing class (nil for a top-level function).
type Method struct {
	Name  string
	Decl  *ir.FuncDecl
	Owner *ir.ClassDecl
}

// Analyze type-checks p and prepares a type-graph analysis. The program is
// expected to be well-typed (graphs of ill-typed programs are built on a
// best-effort basis).
func Analyze(p *ir.Program, b *types.Builtins) *Analysis {
	res := checker.Check(p, b, checker.Options{RecordTypes: true})
	a := &Analysis{Env: checker.NewEnv(p, b), ExprTypes: res.ExprTypes, Result: res}
	for _, d := range p.Decls {
		switch t := d.(type) {
		case *ir.FuncDecl:
			a.Methods = append(a.Methods, Method{Name: t.Name, Decl: t})
		case *ir.ClassDecl:
			for _, m := range t.Methods {
				a.Methods = append(a.Methods, Method{Name: t.Name + "." + m.Name, Decl: m, Owner: t})
			}
		}
	}
	return a
}

// BuildGraph runs the intra-procedural, flow-sensitive analysis A(G, n) of
// Section 3.3.2 over one method, returning its type graph. owner is the
// enclosing class, or nil for top-level functions.
func (a *Analysis) BuildGraph(m *ir.FuncDecl, owner *ir.ClassDecl) *Graph {
	b := &builder{
		a:      a,
		g:      NewGraph(),
		varOcc: map[string]occRef{},
	}
	for _, p := range m.Params {
		if p.Type == nil {
			continue
		}
		// Parameters contribute type information but are not erasable
		// (the IR cannot omit parameter types on named functions).
		ref := b.registerType(p.Type, DeclEdge, nil)
		node := b.g.AddDeclNode("param:" + p.Name)
		b.g.AddEdge(node, ref.node, DeclEdge)
		ref.node = node
		b.varOcc[p.Name] = ref
	}
	if owner != nil {
		for _, f := range owner.Fields {
			ref := b.registerType(f.Type, DeclEdge, nil)
			node := b.g.AddDeclNode("field:" + f.Name)
			b.g.AddEdge(node, ref.node, DeclEdge)
			ref.node = node
			b.varOcc[f.Name] = ref
		}
	}
	if m.Body == nil {
		return b.g
	}
	bodyRef := b.walkExpr(m.Body)
	// The return value is a virtual variable named ret ([var .*] rules).
	ret := b.g.AddDeclNode(m.Name + ".ret")
	b.g.AddEdge(ret, bodyRef.node, InfEdge)
	if m.Ret != nil {
		declRef := b.registerType(m.Ret, DeclEdge, nil)
		b.g.AddEdge(ret, declRef.node, DeclEdge)
		b.linkTarget(declRef, bodyRef)
		if isUnit(m.Ret) {
			// Erasing a Unit return annotation is always type-neutral
			// but also uninteresting; skip the candidate.
			return b.g
		}
		params := declRef.paramNodes()
		b.g.Candidates = append(b.g.Candidates, &Candidate{
			Kind:         ReturnType,
			NodeID:       ret,
			ParamNodeIDs: params,
			EraseSet:     append([]NodeID{ret}, params...),
			VanishNodes:  params,
			Fun:          m,
		})
	}
	return b.g
}

// BuildAll builds the graph of every method, in the order of Methods.
func (a *Analysis) BuildAll() []*Graph {
	out := make([]*Graph, len(a.Methods))
	for i, m := range a.Methods {
		out[i] = a.BuildGraph(m.Decl, m.Owner)
	}
	return out
}

func isUnit(t types.Type) bool {
	s, ok := t.(*types.Simple)
	return ok && s.Builtin && s.TypeName == "Unit"
}

// occRef describes where an expression's or annotation's type information
// lives in the graph: its principal node, its type-application structure,
// and the parameter-occurrence nodes per argument position.
type occRef struct {
	node NodeID
	// app is the occurrence's application type (nil for ground types).
	app *types.App
	// params maps the app's constructor parameters to this occurrence's
	// parameter nodes, in constructor order.
	params paramOccs
	// nested holds the occurrence refs of application-typed argument
	// positions, in position order.
	nested []nestedOcc
	// receptive marks expressions whose typing accepts a target type
	// (constructor and method calls, possibly through blocks). Target
	// information only flows backward into receptive positions — a
	// compiler infers new C<>() from an expected type, but never infers a
	// field-access receiver or an already-typed variable from one.
	receptive bool
}

// paramOcc is the occurrence node of one type parameter.
type paramOcc struct {
	p    *types.Parameter
	node NodeID
}

// paramOccs maps type parameters to occurrence nodes.
type paramOccs []paramOcc

// find returns the occurrence node of p, or nil.
func (ps paramOccs) find(p *types.Parameter) *NodeID {
	for i := range ps {
		if ps[i].p.SameAs(p) {
			return &ps[i].node
		}
	}
	return nil
}

// nestedOcc is the occurrence of the application at argument position pos.
type nestedOcc struct {
	pos int
	ref occRef
}

// nestedAt returns the occurrence at argument position i, or nil.
func (r occRef) nestedAt(i int) *occRef {
	for k := range r.nested {
		if r.nested[k].pos == i {
			return &r.nested[k].ref
		}
	}
	return nil
}

// paramNodes lists the occurrence's parameter nodes and then, position by
// position, those of its nested applications.
func (r occRef) paramNodes() []NodeID {
	if r.app == nil {
		return nil
	}
	return r.appendParamNodes(nil)
}

func (r occRef) appendParamNodes(out []NodeID) []NodeID {
	for _, p := range r.params {
		out = append(out, p.node)
	}
	for _, n := range r.nested {
		out = n.ref.appendParamNodes(out)
	}
	return out
}

type builder struct {
	a      *Analysis
	g      *Graph
	occ    int32
	varOcc map[string]occRef
}

func (b *builder) nextOcc() int32 {
	b.occ++
	return b.occ
}

// registerType materializes a syntactic type occurrence. For type
// applications it creates the [type application] rule's nodes and edges:
// an application node, a parameter-occurrence node per position (def
// edges), and an edge of the given kind from each parameter occurrence to
// its argument (decl for explicit annotations, inf for types that are
// merely known, never erased). tpOccs, when non-nil, maps in-scope type
// parameters to existing occurrence nodes, so positions mentioning them
// are linked rather than re-created.
func (b *builder) registerType(t types.Type, kind EdgeKind, tpOccs paramOccs) occRef {
	switch tt := t.(type) {
	case *types.App:
		occ := b.nextOcc()
		id := b.g.add(Node{Type: tt, occ: occ})
		ref := occRef{node: id, app: tt, params: make(paramOccs, len(tt.Ctor.Params))}
		for i, p := range tt.Ctor.Params {
			pid := b.g.add(Node{Param: p, owner: tt.Ctor.TypeName, occ: occ})
			b.g.AddEdge(id, pid, DefEdge)
			ref.params[i] = paramOcc{p, pid}
			arg := tt.Args[i]
			if proj, ok := arg.(*types.Projection); ok {
				arg = proj.Bound
			}
			switch at := arg.(type) {
			case *types.App:
				nested := b.registerType(at, kind, tpOccs)
				b.g.AddEdge(pid, nested.node, kind)
				ref.nested = append(ref.nested, nestedOcc{i, nested})
			case *types.Parameter:
				if occNode := tpOccs.find(at); occNode != nil {
					// Dependent parameters: information flows both ways
					// between the occurrences.
					b.g.AddEdge(pid, *occNode, InfEdge)
					b.g.AddEdge(*occNode, pid, InfEdge)
					continue
				}
				b.g.AddEdge(pid, b.g.AddScopeParamNode(at), kind)
			default:
				b.g.AddEdge(pid, b.g.AddTypeNode(arg), kind)
			}
		}
		return ref
	case *types.Parameter:
		if occNode := tpOccs.find(tt); occNode != nil {
			return occRef{node: *occNode}
		}
		return occRef{node: b.g.AddScopeParamNode(tt)}
	default:
		return occRef{node: b.g.AddTypeNode(t)}
	}
}

// linkTarget records the unify′ dependencies of the [var param
// constructor] and [var param method call] rules: the (receptive)
// right-hand side's parameter occurrences are inferable from the declared
// target's corresponding occurrences. Information flows one way — from
// the annotation into the expression — matching what inference engines
// actually do with an expected type.
func (b *builder) linkTarget(annot, rhs occRef) {
	if !rhs.receptive {
		return
	}
	b.linkDirectional(rhs, annot)
}

// linkDirectional adds "to is inferred by from" edges between the
// corresponding parameter occurrences of two hierarchy-related
// occurrences.
func (b *builder) linkDirectional(to, from occRef) {
	if to.app == nil || from.app == nil {
		return
	}
	tc, fc := b.correspond(to, from)
	if tc == nil {
		return
	}
	for i := range tc {
		pt, pf := tc[i], fc[i]
		if pt.param != nil && pf.param != nil {
			b.g.AddEdge(*pt.param, *pf.param, InfEdge)
		}
		if pt.nested != nil && pf.nested != nil {
			// Nested receptivity follows the outer expression: an inner
			// diamond inside a receptive constructor call is receptive.
			inner := *pt.nested
			inner.receptive = true
			b.linkDirectional(inner, *pf.nested)
		}
	}
}

// position is one aligned argument position of two related occurrences:
// its parameter occurrence node and its nested application, when it has
// them.
type position struct {
	param  *NodeID
	nested *occRef
}

// correspond aligns the argument positions of two occurrences whose
// application types are related through the class hierarchy, returning
// parallel slices (nil when the constructors are unrelated). For
// class B<T> : A<T>, positions of B<X> align with positions of A<X>.
func (b *builder) correspond(x, y occRef) ([]position, []position) {
	if x.app.Ctor.Equal(y.app.Ctor) {
		return positionsOf(x), positionsOf(y)
	}
	// Try climbing y's hierarchy to x's constructor.
	if xs, ys, ok := climb(x, y); ok {
		return xs, ys
	}
	if ys, xs, ok := climb(y, x); ok {
		return xs, ys
	}
	return nil, nil
}

func positionsOf(r occRef) []position {
	out := make([]position, len(r.app.Ctor.Params))
	for i, p := range r.app.Ctor.Params {
		out[i] = position{param: r.params.find(p), nested: r.nestedAt(i)}
	}
	return out
}

// climb maps sub's parameter occurrences into base's positions via sub's
// supertype chain: S(B<T>) = A<T> aligns B's T-occurrence with A's
// position 0.
func climb(base, sub occRef) ([]position, []position, bool) {
	for _, sup := range types.SuperChain(sub.app.Ctor.Self()) {
		app, ok := sup.(*types.App)
		if !ok || !app.Ctor.Equal(base.app.Ctor) {
			continue
		}
		basePos := positionsOf(base)
		subPos := make([]position, len(app.Args))
		for i, e := range app.Args {
			if p, isParam := e.(*types.Parameter); isParam {
				subPos[i] = position{param: sub.params.find(p)}
				// Find the positional index of p in sub's ctor to carry
				// nested refs along.
				for j, sp := range sub.app.Ctor.Params {
					if sp.SameAs(p) {
						if n := sub.nestedAt(j); n != nil {
							subPos[i].nested = n
						}
					}
				}
			}
		}
		return basePos, subPos, true
	}
	return nil, nil, false
}

// staticType returns the checker-recorded type of e (Top when unknown).
func (b *builder) staticType(e ir.Expr) types.Type {
	if t, ok := b.a.ExprTypes[e]; ok && t != nil {
		return t
	}
	return types.Top{}
}
