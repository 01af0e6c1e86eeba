package ir

import (
	"strings"
	"testing"

	"repro/internal/types"
)

// figure6Program builds the paper's Figure 6 program:
//
//	open class A<T>
//	class B<T>(val f: A<T>) : A<T>()
//	fun m(): A<String> { return B<String>(A<String>()) }
func figure6Program() (*Program, *types.Builtins) {
	b := types.NewBuiltins()
	aT := types.NewParameter("A", "T")
	classA := &ClassDecl{Name: "A", TypeParams: []*types.Parameter{aT}, Open: true}
	ctorA := classA.Type().(*types.Constructor)

	bT := types.NewParameter("B", "T")
	classB := &ClassDecl{
		Name:       "B",
		TypeParams: []*types.Parameter{bT},
		Super:      &SuperRef{Type: ctorA.Apply(bT)},
		Fields:     []*FieldDecl{{Name: "f", Type: ctorA.Apply(bT)}},
	}
	ctorB := classB.Type().(*types.Constructor)

	funcM := &FuncDecl{
		Name: "m",
		Ret:  ctorA.Apply(b.String),
		Body: &New{
			Class:    ctorB,
			TypeArgs: []types.Type{b.String},
			Args: []Expr{&New{
				Class:    ctorA,
				TypeArgs: []types.Type{b.String},
			}},
		},
	}
	return &Program{Package: "fig6", Decls: []Decl{classA, classB, funcM}}, b
}

func TestProgramAccessors(t *testing.T) {
	p, _ := figure6Program()
	if len(p.Classes()) != 2 {
		t.Fatalf("Classes() = %d, want 2", len(p.Classes()))
	}
	if len(p.Functions()) != 1 {
		t.Fatalf("Functions() = %d, want 1", len(p.Functions()))
	}
	if p.ClassByName("B") == nil || p.ClassByName("Z") != nil {
		t.Error("ClassByName lookup broken")
	}
	cb := p.ClassByName("B")
	if cb.FieldByName("f") == nil || cb.FieldByName("g") != nil {
		t.Error("FieldByName lookup broken")
	}
}

func TestClassDeclType(t *testing.T) {
	p, _ := figure6Program()
	a := p.ClassByName("A").Type()
	ctor, ok := a.(*types.Constructor)
	if !ok {
		t.Fatalf("parameterized class type must be a Constructor, got %T", a)
	}
	if ctor.TypeName != "A" || len(ctor.Params) != 1 {
		t.Errorf("bad constructor: %s", ctor)
	}
	bT := p.ClassByName("B").Type().(*types.Constructor)
	// B<T>'s supertype is A<T>.
	sup, ok := bT.Super.(*types.App)
	if !ok || sup.Ctor.TypeName != "A" {
		t.Fatalf("B's supertype should be an application of A, got %v", bT.Super)
	}
	plain := &ClassDecl{Name: "P"}
	if _, ok := plain.Type().(*types.Simple); !ok {
		t.Error("unparameterized class type must be Simple")
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	p, _ := figure6Program()
	var news, decls int
	Walk(p, func(n Node) bool {
		switch n.(type) {
		case *New:
			news++
		case Decl:
			decls++
		}
		return true
	})
	if news != 2 {
		t.Errorf("expected 2 New nodes, got %d", news)
	}
	if decls < 4 { // A, B, f, m
		t.Errorf("expected at least 4 decls, got %d", decls)
	}
}

func TestWalkPruning(t *testing.T) {
	p, _ := figure6Program()
	var news int
	Walk(p, func(n Node) bool {
		if _, ok := n.(*FuncDecl); ok {
			return false // prune method bodies
		}
		if _, ok := n.(*New); ok {
			news++
		}
		return true
	})
	if news != 0 {
		t.Errorf("pruned walk must not reach New nodes, got %d", news)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p, _ := figure6Program()
	c := CloneProgram(p)
	if len(c.Decls) != len(p.Decls) {
		t.Fatal("clone lost declarations")
	}
	// Mutate the clone's method body; the original must be unaffected.
	cm := c.Functions()[0]
	cm.Body.(*New).TypeArgs = nil
	om := p.Functions()[0]
	if om.Body.(*New).TypeArgs == nil {
		t.Error("mutating the clone leaked into the original")
	}
	// Rendered forms must initially coincide.
	p2, _ := figure6Program()
	if Print(CloneProgram(p2)) != Print(p2) {
		t.Error("clone must render identically to the original")
	}
}

// TestCloneProgramSharesNoMutableSlot: every slot a mutation writes —
// an element of a TypeArgs or Params slice, a parameter's type, a
// variable's DeclType, a function's Ret — is the clone's own, so
// overwriting all of them in the clone leaves the source as it was. TOM
// snapshots its mutant this way before restoring its working copy.
func TestCloneProgramSharesNoMutableSlot(t *testing.T) {
	p, b := figure6Program()
	p.Decls = append(p.Decls, &FuncDecl{
		Name:   "g",
		Params: []*ParamDecl{{Name: "x", Type: b.Int}},
		Ret:    b.Unit,
		Body: &Block{
			Stmts: []Node{&VarDecl{Name: "v", DeclType: b.String,
				Init: &Call{Name: "h", TypeArgs: []types.Type{b.String}, Args: []Expr{&VarRef{Name: "x"}}}}},
			Value: &Lambda{Params: []*ParamDecl{{Name: "y", Type: b.Int}}, Body: &VarRef{Name: "y"}},
		},
	})
	before := Print(p)
	clone := CloneProgram(p)
	var nodes []Node
	Walk(clone, func(n Node) bool { nodes = append(nodes, n); return true })
	written := 0
	for _, n := range nodes {
		switch n := n.(type) {
		case *Call:
			for i := range n.TypeArgs {
				n.TypeArgs[i], written = b.Boolean, written+1
			}
		case *New:
			for i := range n.TypeArgs {
				n.TypeArgs[i], written = b.Boolean, written+1
			}
		case *VarDecl:
			n.DeclType, written = b.Boolean, written+1
		case *ParamDecl:
			n.Type, written = b.Boolean, written+1
		case *FuncDecl:
			n.Ret, written = b.Boolean, written+1
			for i := range n.Params {
				n.Params[i], written = &ParamDecl{Name: "z", Type: b.Boolean}, written+1
			}
		case *Lambda:
			for i := range n.Params {
				n.Params[i], written = &ParamDecl{Name: "z", Type: b.Boolean}, written+1
			}
		}
	}
	if written < 10 {
		t.Fatalf("wrote %d slots, want every slot kind covered", written)
	}
	if Print(clone) == before {
		t.Fatal("the writes did not change the clone")
	}
	if got := Print(p); got != before {
		t.Errorf("writing the clone's slots changed the source:\n%s\nwant\n%s", got, before)
	}
}

func TestCloneCoversAllExprForms(t *testing.T) {
	b := types.NewBuiltins()
	e := &Block{
		Stmts: []Node{
			&VarDecl{Name: "x", DeclType: b.Int, Init: &Const{Type: b.Int}},
			&Assign{Target: &VarRef{Name: "x"}, Value: &Const{Type: b.Int}},
			&Call{Name: "f", Args: []Expr{&VarRef{Name: "x"}}},
		},
		Value: &If{
			Cond: &BinaryOp{Op: "==", Left: &VarRef{Name: "x"}, Right: &Const{Type: b.Int}},
			Then: &Cast{Expr: &Const{Type: types.Bottom{}}, Target: b.String},
			Else: &Lambda{
				Params: []*ParamDecl{{Name: "y", Type: b.Int}},
				Body:   &MethodRef{Recv: &VarRef{Name: "y"}, Method: "toString"},
			},
		},
	}
	c := CloneExpr(e).(*Block)
	if ExprString(c) != ExprString(e) {
		t.Errorf("clone render mismatch:\n%s\nvs\n%s", ExprString(c), ExprString(e))
	}
	// Deep: rewriting a nested node of the clone leaves the original alone.
	c.Value.(*If).Cond.(*BinaryOp).Op = "!="
	if e.Value.(*If).Cond.(*BinaryOp).Op != "==" {
		t.Error("clone shared the condition node")
	}
}

func TestPrintRendering(t *testing.T) {
	p, _ := figure6Program()
	src := Print(p)
	for _, want := range []string{
		"package fig6",
		"open class A<T>",
		"class B<T> : A<T>()",
		"val f: A<T>",
		"fun m(): A<String> = B<String>(A<String>(",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("printed program missing %q:\n%s", want, src)
		}
	}
}

func TestPrintDiamondAndInference(t *testing.T) {
	p, _ := figure6Program()
	m := p.Functions()[0]
	m.Ret = nil
	m.Body.(*New).TypeArgs = nil
	src := Print(p)
	if !strings.Contains(src, "fun m() = B<>(") {
		t.Errorf("erased form should use diamond and omit return type:\n%s", src)
	}
}

func TestConstLiterals(t *testing.T) {
	b := types.NewBuiltins()
	cases := []struct {
		t    types.Type
		want string
	}{
		{b.Int, "1"},
		{b.Long, "1L"},
		{b.Boolean, "true"},
		{b.String, `"s"`},
		{b.Char, "'c'"},
		{b.Double, "1.0"},
		{types.Bottom{}, "null"},
		{types.NewSimple("A", nil), "(null as A)"},
	}
	for _, c := range cases {
		if got := ExprString(&Const{Type: c.t}); got != c.want {
			t.Errorf("const of %s = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestAllMethods(t *testing.T) {
	p, _ := figure6Program()
	p.ClassByName("B").Methods = append(p.ClassByName("B").Methods,
		&FuncDecl{Name: "g", Body: &Const{Type: types.NewBuiltins().Int}})
	ms := AllMethods(p)
	if len(ms) != 2 {
		t.Fatalf("AllMethods = %d, want 2", len(ms))
	}
	names := []string{ms[0].Name, ms[1].Name}
	if names[0] != "g" || names[1] != "m" {
		t.Errorf("order should follow declaration order (class B before fun m): %v", names)
	}
}

func TestCountNodes(t *testing.T) {
	p, _ := figure6Program()
	// Program + 2 classes + field + function + 2 News = 7.
	if n := CountNodes(p); n != 7 {
		t.Errorf("CountNodes = %d, want 7", n)
	}
	if n := CountNodes(&VarRef{Name: "x"}); n != 1 {
		t.Errorf("leaf count = %d", n)
	}
}
