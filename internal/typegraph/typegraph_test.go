package typegraph

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/types"
)

// figure6 builds the paper's Figure 6 program:
//
//	open class A<T>
//	class B<T>(val f: A<T>) : A<T>()
//	fun m(): A<String> = B<String>(A<String>())
func figure6() (*ir.Program, *types.Builtins, *ir.FuncDecl) {
	b := types.NewBuiltins()
	aT := types.NewParameter("A", "T")
	classA := &ir.ClassDecl{Name: "A", TypeParams: []*types.Parameter{aT}, Open: true}
	ctorA := classA.Type().(*types.Constructor)
	bT := types.NewParameter("B", "T")
	classB := &ir.ClassDecl{
		Name:       "B",
		TypeParams: []*types.Parameter{bT},
		Super:      &ir.SuperRef{Type: ctorA.Apply(bT)},
		Fields:     []*ir.FieldDecl{{Name: "f", Type: ctorA.Apply(bT)}},
	}
	ctorB := classB.Type().(*types.Constructor)
	m := &ir.FuncDecl{
		Name: "m",
		Ret:  ctorA.Apply(b.String),
		Body: &ir.New{
			Class:    ctorB,
			TypeArgs: []types.Type{b.String},
			Args: []ir.Expr{&ir.New{
				Class:    ctorA,
				TypeArgs: []types.Type{b.String},
			}},
		},
	}
	return &ir.Program{Decls: []ir.Decl{classA, classB, m}}, b, m
}

func buildFigure6(t *testing.T) *Graph {
	t.Helper()
	p, b, m := figure6()
	a := Analyze(p, b)
	if !a.Result.OK() {
		t.Fatalf("figure 6 program must type-check: %v", a.Result.Diags)
	}
	return a.BuildGraph(m, nil)
}

func candidatesByKind(g *Graph, k CandidateKind) []*Candidate {
	var out []*Candidate
	for _, c := range g.Candidates {
		if c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

func TestFigure6Candidates(t *testing.T) {
	g := buildFigure6(t)
	// The paper's Figure 6 marks exactly three erasure candidates: the
	// return type of m and the two constructor instantiations.
	if n := len(candidatesByKind(g, ReturnType)); n != 1 {
		t.Errorf("ReturnType candidates = %d, want 1", n)
	}
	if n := len(candidatesByKind(g, NewTypeArgs)); n != 2 {
		t.Errorf("NewTypeArgs candidates = %d, want 2", n)
	}
	if n := len(g.Candidates); n != 3 {
		t.Errorf("total candidates = %d, want 3", n)
	}
}

func TestFigure6InferReturn(t *testing.T) {
	g := buildFigure6(t)
	ret := candidatesByKind(g, ReturnType)[0]
	got := g.Infer(ret.NodeID)
	if got.String() != "A<String>" {
		t.Errorf("infer(m.ret) = %s, want A<String>", got)
	}
}

func TestFigure6ReturnNotPreserved(t *testing.T) {
	g := buildFigure6(t)
	ret := candidatesByKind(g, ReturnType)[0]
	// Erasing the return annotation changes the inferred type of m.ret
	// from A<String> to B<String> — the paper filters m.ret out.
	if Preserves(g, ret) {
		t.Error("m.ret must NOT preserve its type (A<String> → B<String>)")
	}
	after := g.Infer(ret.NodeID, ret)
	if after.String() != "B<String>" {
		t.Errorf("infer after erasing m.ret = %s, want B<String>", after)
	}
}

func TestFigure6MaximalErasure(t *testing.T) {
	g := buildFigure6(t)
	news := candidatesByKind(g, NewTypeArgs)
	if len(news) != 2 {
		t.Fatalf("need 2 New candidates, got %d", len(news))
	}
	// Each constructor instantiation preserves alone...
	for _, c := range news {
		if !Preserves(g, c) {
			t.Errorf("candidate %s must preserve alone (graph:\n%s)", g.Name(c.NodeID), g.Dot())
		}
	}
	// ... and the paper's maximal combination {B<String>:7, A<String>:8}
	// preserves jointly: both parameters still reach String through the
	// return annotation.
	if !Preserves(g, news[0], news[1]) {
		t.Errorf("the maximal pair must preserve jointly; graph:\n%s", g.Dot())
	}
}

func TestFigure6FullErasureNotPreserved(t *testing.T) {
	g := buildFigure6(t)
	// Erasing everything (return type + both instantiations) starves the
	// parameters of any concrete source: fun m() = B(A()) is uninferable.
	if Preserves(g, g.Candidates...) {
		t.Errorf("erasing all three candidates must not preserve; graph:\n%s", g.Dot())
	}
}

func TestSection341Example(t *testing.T) {
	// class A<T>(val f: T); val x: Any = "str"; val y: A<Any> = A<Any>(x)
	b := types.NewBuiltins()
	aT := types.NewParameter("A", "T")
	classA := &ir.ClassDecl{
		Name: "A", TypeParams: []*types.Parameter{aT},
		Fields: []*ir.FieldDecl{{Name: "f", Type: aT}},
	}
	ctorA := classA.Type().(*types.Constructor)
	test := &ir.FuncDecl{Name: "test", Body: &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{Name: "x", DeclType: types.Top{}, Init: &ir.Const{Type: b.String}},
		&ir.VarDecl{
			Name:     "y",
			DeclType: ctorA.Apply(types.Top{}),
			Init: &ir.New{Class: ctorA, TypeArgs: []types.Type{types.Top{}},
				Args: []ir.Expr{&ir.VarRef{Name: "x"}}},
		},
	}}}
	p := &ir.Program{Decls: []ir.Decl{classA, test}}
	a := Analyze(p, b)
	if !a.Result.OK() {
		t.Fatalf("program must type-check: %v", a.Result.Diags)
	}
	g := a.BuildGraph(test, nil)

	vars := candidatesByKind(g, VarDeclType)
	if len(vars) != 2 {
		t.Fatalf("want 2 var candidates, got %d", len(vars))
	}
	var xCand, yCand *Candidate
	for _, c := range vars {
		switch c.Var.Name {
		case "x":
			xCand = c
		case "y":
			yCand = c
		}
	}
	// Erasing x's declared type changes its inferred type Any → String:
	// not preserved (this is what makes the combined erasure unsafe).
	if Preserves(g, xCand) {
		t.Error("x must not preserve its type (Any → String)")
	}
	// Erasing y's declared type alone is fine: the right-hand side is an
	// explicit A<Any>(x).
	if !Preserves(g, yCand) {
		t.Errorf("y must preserve its type; graph:\n%s", g.Dot())
	}
	// The constructor instantiation may be erased alone (target type
	// recovers it)...
	news := candidatesByKind(g, NewTypeArgs)
	if len(news) != 1 {
		t.Fatalf("want 1 New candidate, got %d", len(news))
	}
	if !Preserves(g, news[0]) {
		t.Errorf("A<Any>(x) must preserve alone; graph:\n%s", g.Dot())
	}
	// ...and even together with y's annotation (the argument x: Any still
	// pins T = Any). The combination the paper warns about — x's declared
	// type together with the instantiation — must NOT preserve, which is
	// why Algorithm 2's line-5 filter drops x up front.
	if !Preserves(g, yCand, news[0]) {
		t.Errorf("erasing y's type AND the instantiation keeps T = Any; graph:\n%s", g.Dot())
	}
	if Preserves(g, xCand, news[0]) {
		t.Error("erasing x's type AND the instantiation must not preserve (the paper's counterexample)")
	}
}

func TestTypeRelevance(t *testing.T) {
	g := buildFigure6(t)
	b := types.NewBuiltins()
	news := candidatesByKind(g, NewTypeArgs)
	// After erasing an instantiation, its parameter occurrence infers
	// String; it is relevant to String and Any, not to Int (the paper's
	// TOM example replaces A<String> with A<Int> precisely because of
	// this).
	for _, cand := range news {
		nodes := cand.RelevanceNodes()
		if len(nodes) != 1 {
			t.Fatalf("want 1 relevance node, got %v", nodes)
		}
		node := nodes[0]
		inf := g.Infer(node, cand)
		if inf.String() != "String" {
			t.Fatalf("infer after erasure of %s = %s, want String; graph:\n%s", g.Name(node), inf, g.Dot())
		}
		if !RelevantTo(g, cand, node, b.String) {
			t.Error("node must be relevant to String")
		}
		if !RelevantTo(g, cand, node, types.Top{}) {
			t.Error("node must be relevant to Any")
		}
		if RelevantTo(g, cand, node, b.Int) {
			t.Error("node must NOT be relevant to Int")
		}
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	b := types.NewBuiltins()
	d := g.AddDeclNode("var:x")
	ty := g.AddTypeNode(b.String)
	if again := g.AddDeclNode("var:x"); again != d {
		t.Errorf("a keyed node must be added once: %d, then %d", d, again)
	}
	g.AddEdge(d, ty, DeclEdge)
	g.AddEdge(d, ty, DeclEdge) // deduplicated
	if g.NumEdges() != 1 {
		t.Errorf("duplicate edges must collapse, got %d", g.NumEdges())
	}
	if got := g.Infer(d); !got.Equal(b.String) {
		t.Errorf("infer = %s", got)
	}
	if got := g.Infer(d, &Candidate{EraseSet: []NodeID{d}}); !got.Equal(types.Bottom{}) {
		t.Errorf("erased infer = %s, want Nothing", got)
	}
	if _, ok := g.keys["missing"]; ok {
		t.Error("a missing key must not resolve")
	}
	if got := g.Name(ty); got != "String" {
		t.Errorf("a type node is named by its type: %q", got)
	}
}

func TestInferFollowsInfButNotDef(t *testing.T) {
	g := NewGraph()
	b := types.NewBuiltins()
	d := g.AddDeclNode("n")
	mid := g.AddDeclNode("mid")
	str := g.AddTypeNode(b.String)
	intN := g.AddTypeNode(b.Int)
	g.AddEdge(d, mid, InfEdge)
	g.AddEdge(mid, str, InfEdge)
	g.AddEdge(d, intN, DefEdge) // def edges are not traversed
	if got := g.Infer(d); !got.Equal(b.String) {
		t.Errorf("infer = %s, want String (def edge must be ignored)", got)
	}
}

func TestDotRendering(t *testing.T) {
	g := buildFigure6(t)
	dot := g.Dot()
	for _, want := range []string{"digraph typegraph", "m.ret", "String", "decl", "inf", "def"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}

func TestBuildAll(t *testing.T) {
	p, b, _ := figure6()
	// Add a method to class B to confirm class methods are covered.
	p.ClassByName("B").Methods = append(p.ClassByName("B").Methods, &ir.FuncDecl{
		Name: "g", Ret: b.Int, Body: &ir.Const{Type: b.Int},
	})
	a := Analyze(p, b)
	graphs := a.BuildAll()
	var names []string
	for i, m := range a.Methods {
		names = append(names, m.Name)
		if graphs[i] == nil {
			t.Errorf("missing graph for %s", m.Name)
		}
	}
	// Declaration order: class B's methods come before the function m.
	if got := strings.Join(names, " "); got != "B.g m" {
		t.Errorf("methods = %q, want %q", got, "B.g m")
	}
}

func TestFigure1ClosureFieldFlow(t *testing.T) {
	// The Figure 1 shape: val closure = { B<>(A<Long>()) };
	// val x: A<Long> = closure().f. The type information must flow from
	// the inner A<Long> through the lambda and field access to x.
	b := types.NewBuiltins()
	aT := types.NewParameter("A", "T")
	classA := &ir.ClassDecl{Name: "A", TypeParams: []*types.Parameter{aT}, Open: true}
	ctorA := classA.Type().(*types.Constructor)
	bT := types.NewParameter("B", "T")
	classB := &ir.ClassDecl{Name: "B", TypeParams: []*types.Parameter{bT},
		Fields: []*ir.FieldDecl{{Name: "f", Type: bT}}}
	ctorB := classB.Type().(*types.Constructor)

	test := &ir.FuncDecl{Name: "test", Body: &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{Name: "closure", Init: &ir.Lambda{Body: &ir.New{
			Class: ctorB,
			Args:  []ir.Expr{&ir.New{Class: ctorA, TypeArgs: []types.Type{b.Long}}},
		}}},
		&ir.VarDecl{
			Name:     "x",
			DeclType: ctorA.Apply(b.Long),
			Init:     &ir.FieldAccess{Recv: &ir.Call{Name: "closure"}, Field: "f"},
		},
	}}}
	p := &ir.Program{Decls: []ir.Decl{classA, classB, test}}
	a := Analyze(p, b)
	if !a.Result.OK() {
		t.Fatalf("figure 1 program must type-check: %v", a.Result.Diags)
	}
	g := a.BuildGraph(test, nil)
	// var:x must infer A<Long>.
	x, ok := g.keys["var:x"]
	if !ok {
		t.Fatalf("no var:x node; graph:\n%s", g.Dot())
	}
	if got := g.Infer(x); got.String() != "A<Long>" {
		t.Errorf("infer(var:x) = %s, want A<Long>", got)
	}
	// And x's annotation is erasable: the right-hand side pins the type.
	for _, c := range candidatesByKind(g, VarDeclType) {
		if c.Var.Name == "x" && !Preserves(g, c) {
			t.Errorf("x's declared type should be erasable; graph:\n%s", g.Dot())
		}
	}
}

// TestCallTypeArgsCandidate covers explicit method type arguments as
// erasure candidates (TEM case: e.m<T>(x) → e.m(x)).
func TestCallTypeArgsCandidate(t *testing.T) {
	b := types.NewBuiltins()
	// fun <T> id(x: T): T = x; fun test() { val s: String = id<String>("s") }
	tp := types.NewParameter("id", "T")
	id := &ir.FuncDecl{
		Name:       "id",
		TypeParams: []*types.Parameter{tp},
		Params:     []*ir.ParamDecl{{Name: "x", Type: tp}},
		Ret:        tp,
		Body:       &ir.VarRef{Name: "x"},
	}
	test := &ir.FuncDecl{Name: "test", Ret: b.Unit, Body: &ir.Block{
		Stmts: []ir.Node{&ir.VarDecl{
			Name:     "s",
			DeclType: b.String,
			Init: &ir.Call{Name: "id", TypeArgs: []types.Type{b.String},
				Args: []ir.Expr{&ir.Const{Type: b.String}}},
		}},
		Value: &ir.Const{Type: b.Unit},
	}}
	p := &ir.Program{Decls: []ir.Decl{id, test}}
	a := Analyze(p, b)
	if !a.Result.OK() {
		t.Fatalf("program must check: %v", a.Result.Diags)
	}
	g := a.BuildGraph(test, nil)
	calls := candidatesByKind(g, CallTypeArgs)
	if len(calls) != 1 {
		t.Fatalf("want 1 CallTypeArgs candidate, got %d", len(calls))
	}
	// The argument "s" pins T = String, so the explicit instantiation is
	// erasable.
	if !Preserves(g, calls[0]) {
		t.Errorf("id<String>(\"s\") should be erasable; graph:\n%s", g.Dot())
	}
	// And its relevance node infers String.
	nodes := calls[0].RelevanceNodes()
	if len(nodes) != 1 {
		t.Fatalf("relevance nodes = %v", nodes)
	}
	if inf := g.Infer(nodes[0], calls[0]); inf.String() != "String" {
		t.Errorf("infer after erasure = %s, want String", inf)
	}
}

// TestUnconstrainedCallTypeArgsNotErasable: with neither argument nor
// target evidence, explicit type arguments must be kept.
func TestUnconstrainedCallTypeArgsNotErasable(t *testing.T) {
	b := types.NewBuiltins()
	// fun <T> mk(): Int = 1; fun test() { val n: Int = mk<String>() } —
	// T appears nowhere else; erasing <String> leaves T uninferable.
	tp := types.NewParameter("mk", "T")
	mk := &ir.FuncDecl{
		Name:       "mk",
		TypeParams: []*types.Parameter{tp},
		Ret:        b.Int,
		Body:       &ir.Const{Type: b.Int},
	}
	test := &ir.FuncDecl{Name: "test", Ret: b.Unit, Body: &ir.Block{
		Stmts: []ir.Node{&ir.VarDecl{
			Name: "n", DeclType: b.Int,
			Init: &ir.Call{Name: "mk", TypeArgs: []types.Type{b.String}},
		}},
		Value: &ir.Const{Type: b.Unit},
	}}
	p := &ir.Program{Decls: []ir.Decl{mk, test}}
	a := Analyze(p, b)
	g := a.BuildGraph(test, nil)
	for _, c := range candidatesByKind(g, CallTypeArgs) {
		if Preserves(g, c) {
			t.Errorf("unconstrained type argument must not be erasable; graph:\n%s", g.Dot())
		}
	}
}

// TestGraphInvariantsOnGeneratedPrograms checks structural invariants of
// every graph built from generated programs: node names are unique, keyed
// nodes resolve to themselves, edges and candidates' erase sets name real
// nodes, def edges only leave application nodes, and Infer is
// deterministic.
func TestGraphInvariantsOnGeneratedPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := generatorProgram(seed)
		a := Analyze(g, types.NewBuiltins())
		for i, graph := range a.BuildAll() {
			name := a.Methods[i].Name
			names := map[string]NodeID{}
			for j := range graph.NumNodes() {
				id := NodeID(j)
				n := graph.Name(id)
				if prev, dup := names[n]; dup {
					t.Fatalf("seed %d %s: nodes %d and %d are both named %s", seed, name, prev, id, n)
				}
				names[n] = id
				if k, ok := graph.keys[n]; ok && k != id {
					t.Fatalf("seed %d %s: key %s resolves to node %d, not %d", seed, name, n, k, id)
				}
				for _, e := range graph.Edges(id) {
					if int(e.To) >= graph.NumNodes() {
						t.Fatalf("seed %d %s: edge %s -> %d dangles", seed, name, n, e.To)
					}
					if e.Kind == DefEdge && graph.Node(id).Type == nil {
						t.Errorf("seed %d %s: def edge from non-application %s", seed, name, n)
					}
				}
			}
			for _, c := range graph.Candidates {
				for _, id := range c.EraseSet {
					if int(id) >= graph.NumNodes() {
						t.Errorf("seed %d %s: candidate %s erases missing node %d", seed, name, c.Kind, id)
					}
				}
				// Infer is deterministic.
				i1 := graph.Infer(c.NodeID)
				i2 := graph.Infer(c.NodeID)
				if !i1.Equal(i2) {
					t.Errorf("seed %d %s: Infer nondeterministic on %s", seed, name, graph.Name(c.NodeID))
				}
			}
		}
	}
}

func generatorProgram(seed int64) *ir.Program {
	// Local import indirection to avoid a test-only dependency cycle.
	return genProgram(seed)
}
