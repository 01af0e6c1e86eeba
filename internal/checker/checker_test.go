package checker

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/ir"
	"repro/internal/types"
)

func check(t *testing.T, p *ir.Program) *Result {
	t.Helper()
	return Check(p, types.NewBuiltins(), Options{})
}

func mustOK(t *testing.T, p *ir.Program) {
	t.Helper()
	res := check(t, p)
	if !res.OK() {
		t.Fatalf("expected well-typed, got diagnostics:\n%s\nprogram:\n%s",
			diagsString(res), ir.Print(p))
	}
}

func mustFail(t *testing.T, p *ir.Program, kind DiagKind) *Result {
	t.Helper()
	res := check(t, p)
	if res.OK() {
		t.Fatalf("expected a %s diagnostic, program accepted:\n%s", kind, ir.Print(p))
	}
	if !res.HasKind(kind) {
		t.Fatalf("expected kind %s, got:\n%s", kind, diagsString(res))
	}
	return res
}

func diagsString(r *Result) string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String() + "\n")
	}
	return b.String()
}

// abGeneric builds: open class A<T>; class B<T>(val f: A<T>) : A<T>().
func abGeneric() (*ir.ClassDecl, *ir.ClassDecl, *types.Constructor, *types.Constructor) {
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
	// Super constructor A<T>() takes no arguments (A has no fields).
	return classA, classB, ctorA, classB.Type().(*types.Constructor)
}

func TestSimpleWellTypedProgram(t *testing.T) {
	b := types.NewBuiltins()
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "f", Ret: b.Int, Body: &ir.Const{Type: b.Int}},
	}}
	mustOK(t, p)
}

func TestReturnTypeMismatch(t *testing.T) {
	b := types.NewBuiltins()
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "f", Ret: b.Int, Body: &ir.Const{Type: b.String}},
	}}
	mustFail(t, p, TypeMismatch)
}

func TestReturnSubtypeAccepted(t *testing.T) {
	b := types.NewBuiltins()
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "f", Ret: b.Number, Body: &ir.Const{Type: b.Int}},
	}}
	mustOK(t, p)
}

func TestInferredReturnType(t *testing.T) {
	b := types.NewBuiltins()
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "f", Body: &ir.Const{Type: b.String}},
	}}
	res := check(t, p)
	if !res.OK() {
		t.Fatal(diagsString(res))
	}
	if res.InferredReturns["f"] != "String" {
		t.Errorf("inferred return = %q, want String", res.InferredReturns["f"])
	}
}

func TestVarDeclInference(t *testing.T) {
	b := types.NewBuiltins()
	body := &ir.Block{
		Stmts: []ir.Node{
			&ir.VarDecl{Name: "x", Init: &ir.Const{Type: b.Int}},
			&ir.VarDecl{Name: "y", DeclType: b.Number, Init: &ir.VarRef{Name: "x"}},
		},
		Value: &ir.VarRef{Name: "y"},
	}
	p := &ir.Program{Decls: []ir.Decl{&ir.FuncDecl{Name: "f", Ret: b.Number, Body: body}}}
	mustOK(t, p)
}

func TestVarDeclMismatch(t *testing.T) {
	b := types.NewBuiltins()
	body := &ir.Block{
		Stmts: []ir.Node{
			&ir.VarDecl{Name: "x", DeclType: b.Int, Init: &ir.Const{Type: b.String}},
		},
	}
	p := &ir.Program{Decls: []ir.Decl{&ir.FuncDecl{Name: "f", Ret: nil, Body: body}}}
	mustFail(t, p, TypeMismatch)
}

func TestUnresolvedVariable(t *testing.T) {
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "f", Body: &ir.VarRef{Name: "ghost"}},
	}}
	mustFail(t, p, UnresolvedReference)
}

func TestNullInitializerNeedsType(t *testing.T) {
	body := &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{Name: "x", Init: &ir.Const{Type: types.Bottom{}}},
	}}
	p := &ir.Program{Decls: []ir.Decl{&ir.FuncDecl{Name: "f", Body: body}}}
	mustFail(t, p, InferenceFailure)
}

func TestClassFieldsAndMethods(t *testing.T) {
	b := types.NewBuiltins()
	cls := &ir.ClassDecl{
		Name:   "Box",
		Fields: []*ir.FieldDecl{{Name: "v", Type: b.Int}},
		Methods: []*ir.FuncDecl{{
			Name: "get", Ret: b.Int, Body: &ir.VarRef{Name: "v"},
		}},
	}
	boxT := cls.Type()
	p := &ir.Program{Decls: []ir.Decl{
		cls,
		&ir.FuncDecl{Name: "use", Ret: b.Int, Body: &ir.Block{
			Stmts: []ir.Node{
				&ir.VarDecl{Name: "b", Init: &ir.New{Class: boxT, Args: []ir.Expr{&ir.Const{Type: b.Int}}}},
			},
			Value: &ir.Call{Recv: &ir.VarRef{Name: "b"}, Name: "get"},
		}},
	}}
	mustOK(t, p)
}

func TestFieldAccessThroughHierarchy(t *testing.T) {
	b := types.NewBuiltins()
	classA, classB, ctorA, ctorB := abGeneric()
	// fun m(): A<String> = B<String>(A<String>()).f — f has type A<T>
	// substituted to A<String>.
	f := &ir.FuncDecl{
		Name: "m",
		Ret:  ctorA.Apply(b.String),
		Body: &ir.FieldAccess{
			Recv: &ir.New{
				Class:    ctorB,
				TypeArgs: []types.Type{b.String},
				Args:     []ir.Expr{&ir.New{Class: ctorA, TypeArgs: []types.Type{b.String}}},
			},
			Field: "f",
		},
	}
	p := &ir.Program{Decls: []ir.Decl{classA, classB, f}}
	mustOK(t, p)
}

func TestDiamondInferenceFromArgs(t *testing.T) {
	b := types.NewBuiltins()
	classA, classB, ctorA, ctorB := abGeneric()
	// val x: B<Long> = B<>(A<Long>()) — diamond inferred from argument.
	body := &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{
			Name:     "x",
			DeclType: ctorB.Apply(b.Long),
			Init: &ir.New{Class: ctorB, Args: []ir.Expr{
				&ir.New{Class: ctorA, TypeArgs: []types.Type{b.Long}},
			}},
		},
	}}
	p := &ir.Program{Decls: []ir.Decl{classA, classB, &ir.FuncDecl{Name: "test", Body: body}}}
	mustOK(t, p)
}

func TestDiamondInferenceFromTarget(t *testing.T) {
	b := types.NewBuiltins()
	classA, _, ctorA, _ := abGeneric()
	// val x: A<String> = A<>() — instantiation from the target type.
	body := &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{Name: "x", DeclType: ctorA.Apply(b.String), Init: &ir.New{Class: ctorA}},
	}}
	p := &ir.Program{Decls: []ir.Decl{classA, &ir.FuncDecl{Name: "test", Body: body}}}
	mustOK(t, p)
}

func TestDiamondMismatchDetected(t *testing.T) {
	b := types.NewBuiltins()
	classA, classB, ctorA, ctorB := abGeneric()
	// The paper's Section 3.4.1 example: val x: Any = "str";
	// val y: A<Any> = A(x) becomes ill-typed after erasing x's type.
	// Here: val y: B<Any> = B<>(A<String>()) — argument says String,
	// target says Any: the argument binding wins, then conformance fails.
	body := &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{
			Name:     "y",
			DeclType: ctorB.Apply(types.Top{}),
			Init: &ir.New{Class: ctorB, Args: []ir.Expr{
				&ir.New{Class: ctorA, TypeArgs: []types.Type{b.String}},
			}},
		},
	}}
	p := &ir.Program{Decls: []ir.Decl{classA, classB, &ir.FuncDecl{Name: "test", Body: body}}}
	mustFail(t, p, TypeMismatch)
}

// TestFigure1Groovy10080 encodes the paper's Figure 1 program. It is
// well-typed: the reference checker must accept it (groovyc's inference
// bug rejected it).
//
//	class A<T> {}
//	class B<T>(val f: T)
//	fun test() { val closure = { B<>(A<Long>()) }; val x: A<Long> = closure().f }
func TestFigure1Groovy10080(t *testing.T) {
	b := types.NewBuiltins()
	aT := types.NewParameter("A", "T")
	classA := &ir.ClassDecl{Name: "A", TypeParams: []*types.Parameter{aT}, Open: true}
	ctorA := classA.Type().(*types.Constructor)
	bT := types.NewParameter("B", "T")
	classB := &ir.ClassDecl{
		Name:       "B",
		TypeParams: []*types.Parameter{bT},
		Fields:     []*ir.FieldDecl{{Name: "f", Type: bT}},
	}
	ctorB := classB.Type().(*types.Constructor)

	// Lambda with no params returning B<A<Long>> via diamond.
	lambda := &ir.Lambda{Body: &ir.New{
		Class: ctorB,
		Args:  []ir.Expr{&ir.New{Class: ctorA, TypeArgs: []types.Type{b.Long}}},
	}}
	test := &ir.FuncDecl{Name: "test", Body: &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{Name: "closure", Init: lambda},
		&ir.VarDecl{
			Name:     "x",
			DeclType: ctorA.Apply(b.Long),
			Init:     &ir.FieldAccess{Recv: &ir.Call{Name: "closure"}, Field: "f"},
		},
	}}}
	p := &ir.Program{Decls: []ir.Decl{classA, classB, test}}
	mustOK(t, p)
}

// TestFigure2KT48765 encodes the paper's Figure 2 program. It is
// ill-typed: instantiating T2 (bounded by String) as Number violates the
// bound, so the reference checker must reject it (kotlinc accepted it).
//
//	fun <T1 : Number> foo(x: T1) {}
//	fun <T2 : String> bar(): T2 = ("" as T2)
//	fun test() { foo(bar()) }
func TestFigure2KT48765(t *testing.T) {
	b := types.NewBuiltins()
	t1 := &types.Parameter{Owner: "foo", ParamName: "T1", Bound: b.Number}
	foo := &ir.FuncDecl{
		Name:       "foo",
		TypeParams: []*types.Parameter{t1},
		Params:     []*ir.ParamDecl{{Name: "x", Type: t1}},
		Ret:        b.Unit,
		Body:       &ir.Const{Type: b.Unit},
	}
	t2 := &types.Parameter{Owner: "bar", ParamName: "T2", Bound: b.String}
	bar := &ir.FuncDecl{
		Name:       "bar",
		TypeParams: []*types.Parameter{t2},
		Ret:        t2,
		Body:       &ir.Cast{Expr: &ir.Const{Type: b.String}, Target: t2},
	}
	test := &ir.FuncDecl{Name: "test", Body: &ir.Call{Name: "foo", Args: []ir.Expr{
		&ir.Call{Name: "bar"},
	}}}
	p := &ir.Program{Decls: []ir.Decl{foo, bar, test}}
	res := mustFail(t, p, BoundViolation)
	// The diagnostic should be the one the paper quotes.
	found := false
	for _, d := range res.Diags {
		if d.Kind == BoundViolation && strings.Contains(d.Msg, "not a subtype of String") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected the KT-48765 style message, got:\n%s", diagsString(res))
	}
}

func TestGenericCallInferenceFromArgs(t *testing.T) {
	b := types.NewBuiltins()
	classA, classB, ctorA, ctorB := abGeneric()
	// fun <T> first(x: A<T>): A<T> = x
	tp := types.NewParameter("first", "T")
	first := &ir.FuncDecl{
		Name:       "first",
		TypeParams: []*types.Parameter{tp},
		Params:     []*ir.ParamDecl{{Name: "x", Type: ctorA.Apply(tp)}},
		Ret:        ctorA.Apply(tp),
		Body:       &ir.VarRef{Name: "x"},
	}
	// val r: A<Int> = first(B<Int>(A<Int>())) — T inferred through the
	// hierarchy (B<Int> <: A<Int>).
	test := &ir.FuncDecl{Name: "test", Body: &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{
			Name:     "r",
			DeclType: ctorA.Apply(b.Int),
			Init: &ir.Call{Name: "first", Args: []ir.Expr{
				&ir.New{Class: ctorB, TypeArgs: []types.Type{b.Int},
					Args: []ir.Expr{&ir.New{Class: ctorA, TypeArgs: []types.Type{b.Int}}}},
			}},
		},
	}}}
	p := &ir.Program{Decls: []ir.Decl{classA, classB, first, test}}
	mustOK(t, p)
}

func TestGenericCallInferenceFromTarget(t *testing.T) {
	b := types.NewBuiltins()
	// fun <T> id(): T = (null as T); val s: String = id()
	tp := types.NewParameter("id", "T")
	id := &ir.FuncDecl{
		Name:       "id",
		TypeParams: []*types.Parameter{tp},
		Ret:        tp,
		Body:       &ir.Cast{Expr: &ir.Const{Type: types.Bottom{}}, Target: tp},
	}
	test := &ir.FuncDecl{Name: "test", Body: &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{Name: "s", DeclType: b.String, Init: &ir.Call{Name: "id"}},
	}}}
	p := &ir.Program{Decls: []ir.Decl{id, test}}
	mustOK(t, p)
}

func TestGenericCallExplicitBoundViolation(t *testing.T) {
	b := types.NewBuiltins()
	tp := &types.Parameter{Owner: "f", ParamName: "T", Bound: b.Number}
	f := &ir.FuncDecl{
		Name:       "f",
		TypeParams: []*types.Parameter{tp},
		Params:     []*ir.ParamDecl{{Name: "x", Type: tp}},
		Ret:        b.Unit,
		Body:       &ir.Const{Type: b.Unit},
	}
	test := &ir.FuncDecl{Name: "test", Body: &ir.Call{
		Name:     "f",
		TypeArgs: []types.Type{b.String},
		Args:     []ir.Expr{&ir.Const{Type: b.String}},
	}}
	p := &ir.Program{Decls: []ir.Decl{f, test}}
	mustFail(t, p, BoundViolation)
}

func TestGenericCallUninferable(t *testing.T) {
	tp := types.NewParameter("f", "T")
	f := &ir.FuncDecl{
		Name:       "f",
		TypeParams: []*types.Parameter{tp},
		Ret:        types.NewBuiltins().Unit,
		Body:       &ir.Const{Type: types.NewBuiltins().Unit},
	}
	// f() with no args, no target: T cannot be inferred.
	test := &ir.FuncDecl{Name: "test", Body: &ir.Block{Stmts: []ir.Node{
		&ir.Call{Name: "f"},
	}}}
	p := &ir.Program{Decls: []ir.Decl{f, test}}
	mustFail(t, p, InferenceFailure)
}

func TestLambdaParamInferenceFromTarget(t *testing.T) {
	b := types.NewBuiltins()
	// fun apply(g: (Int) -> String): String = g(1)
	apply := &ir.FuncDecl{
		Name:   "apply",
		Params: []*ir.ParamDecl{{Name: "g", Type: &types.Func{Params: []types.Type{b.Int}, Ret: b.String}}},
		Ret:    b.String,
		Body:   &ir.Call{Name: "g", Args: []ir.Expr{&ir.Const{Type: b.Int}}},
	}
	// apply { x -> "s" } with x's type inferred from the target.
	test := &ir.FuncDecl{Name: "test", Ret: b.String, Body: &ir.Call{
		Name: "apply",
		Args: []ir.Expr{&ir.Lambda{
			Params: []*ir.ParamDecl{{Name: "x"}},
			Body:   &ir.Const{Type: b.String},
		}},
	}}
	p := &ir.Program{Decls: []ir.Decl{apply, test}}
	mustOK(t, p)
}

func TestLambdaWithoutTargetFails(t *testing.T) {
	body := &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{Name: "g", Init: &ir.Lambda{
			Params: []*ir.ParamDecl{{Name: "x"}},
			Body:   &ir.VarRef{Name: "x"},
		}},
	}}
	p := &ir.Program{Decls: []ir.Decl{&ir.FuncDecl{Name: "test", Body: body}}}
	mustFail(t, p, InferenceFailure)
}

func TestMethodReference(t *testing.T) {
	b := types.NewBuiltins()
	cls := &ir.ClassDecl{
		Name: "S",
		Methods: []*ir.FuncDecl{{
			Name: "len", Params: []*ir.ParamDecl{{Name: "s", Type: b.String}},
			Ret: b.Int, Body: &ir.Const{Type: b.Int},
		}},
	}
	test := &ir.FuncDecl{Name: "test", Body: &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{
			Name:     "r",
			DeclType: &types.Func{Params: []types.Type{b.String}, Ret: b.Int},
			Init:     &ir.MethodRef{Recv: &ir.New{Class: cls.Type()}, Method: "len"},
		},
	}}}
	p := &ir.Program{Decls: []ir.Decl{cls, test}}
	mustOK(t, p)
}

func TestIfLubTyping(t *testing.T) {
	b := types.NewBuiltins()
	// if (true) 1 else 1L : Number.
	f := &ir.FuncDecl{Name: "f", Ret: b.Number, Body: &ir.If{
		Cond: &ir.Const{Type: b.Boolean},
		Then: &ir.Const{Type: b.Int},
		Else: &ir.Const{Type: b.Long},
	}}
	mustOK(t, &ir.Program{Decls: []ir.Decl{f}})

	bad := &ir.FuncDecl{Name: "g", Ret: b.Number, Body: &ir.If{
		Cond: &ir.Const{Type: b.Int}, // non-Boolean condition
		Then: &ir.Const{Type: b.Int},
		Else: &ir.Const{Type: b.Int},
	}}
	mustFail(t, &ir.Program{Decls: []ir.Decl{bad}}, ConditionNotBoolean)
}

func TestAssignmentMutability(t *testing.T) {
	b := types.NewBuiltins()
	okBody := &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{Name: "x", DeclType: b.Int, Init: &ir.Const{Type: b.Int}, Mutable: true},
		&ir.Assign{Target: &ir.VarRef{Name: "x"}, Value: &ir.Const{Type: b.Int}},
	}}
	mustOK(t, &ir.Program{Decls: []ir.Decl{&ir.FuncDecl{Name: "f", Body: okBody}}})

	valBody := &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{Name: "x", DeclType: b.Int, Init: &ir.Const{Type: b.Int}},
		&ir.Assign{Target: &ir.VarRef{Name: "x"}, Value: &ir.Const{Type: b.Int}},
	}}
	mustFail(t, &ir.Program{Decls: []ir.Decl{&ir.FuncDecl{Name: "f", Body: valBody}}}, InvalidAssignment)

	mismatch := &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{Name: "x", DeclType: b.Int, Init: &ir.Const{Type: b.Int}, Mutable: true},
		&ir.Assign{Target: &ir.VarRef{Name: "x"}, Value: &ir.Const{Type: b.String}},
	}}
	mustFail(t, &ir.Program{Decls: []ir.Decl{&ir.FuncDecl{Name: "f", Body: mismatch}}}, TypeMismatch)
}

func TestExtendFinalClassRejected(t *testing.T) {
	base := &ir.ClassDecl{Name: "Base"} // not open
	derived := &ir.ClassDecl{Name: "D", Super: &ir.SuperRef{Type: base.Type()}}
	mustFail(t, &ir.Program{Decls: []ir.Decl{base, derived}}, IllegalDeclaration)
}

func TestInterfaceCannotBeInstantiated(t *testing.T) {
	iface := &ir.ClassDecl{Name: "I", Kind: ir.InterfaceClass}
	f := &ir.FuncDecl{Name: "f", Body: &ir.New{Class: iface.Type()}}
	mustFail(t, &ir.Program{Decls: []ir.Decl{iface, f}}, IllegalDeclaration)
}

func TestDuplicateTopLevel(t *testing.T) {
	b := types.NewBuiltins()
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "f", Ret: b.Int, Body: &ir.Const{Type: b.Int}},
		&ir.FuncDecl{Name: "f", Ret: b.Int, Body: &ir.Const{Type: b.Int}},
	}}
	mustFail(t, p, IllegalDeclaration)
}

func TestSuperConstructorArgsChecked(t *testing.T) {
	b := types.NewBuiltins()
	base := &ir.ClassDecl{Name: "Base", Open: true,
		Fields: []*ir.FieldDecl{{Name: "v", Type: b.Int}}}
	okDerived := &ir.ClassDecl{Name: "D1",
		Fields: []*ir.FieldDecl{{Name: "w", Type: b.Int}},
		Super:  &ir.SuperRef{Type: base.Type(), Args: []ir.Expr{&ir.VarRef{Name: "w"}}}}
	mustOK(t, &ir.Program{Decls: []ir.Decl{base, okDerived}})

	badDerived := &ir.ClassDecl{Name: "D2",
		Super: &ir.SuperRef{Type: base.Type(), Args: []ir.Expr{&ir.Const{Type: b.String}}}}
	mustFail(t, &ir.Program{Decls: []ir.Decl{base, badDerived}}, TypeMismatch)

	arity := &ir.ClassDecl{Name: "D3", Super: &ir.SuperRef{Type: base.Type()}}
	mustFail(t, &ir.Program{Decls: []ir.Decl{base, arity}}, ArityMismatch)
}

func TestBoundedClassInstantiation(t *testing.T) {
	b := types.NewBuiltins()
	tp := &types.Parameter{Owner: "NumBox", ParamName: "T", Bound: b.Number}
	cls := &ir.ClassDecl{Name: "NumBox", TypeParams: []*types.Parameter{tp},
		Fields: []*ir.FieldDecl{{Name: "v", Type: tp}}}
	ctor := cls.Type().(*types.Constructor)

	ok := &ir.FuncDecl{Name: "f", Body: &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{Name: "x", Init: &ir.New{Class: ctor, TypeArgs: []types.Type{b.Int},
			Args: []ir.Expr{&ir.Const{Type: b.Int}}}},
	}}}
	mustOK(t, &ir.Program{Decls: []ir.Decl{cls, ok}})

	bad := &ir.FuncDecl{Name: "g", Body: &ir.Block{Stmts: []ir.Node{
		&ir.VarDecl{Name: "x", Init: &ir.New{Class: ctor, TypeArgs: []types.Type{b.String},
			Args: []ir.Expr{&ir.Const{Type: b.String}}}},
	}}}
	mustFail(t, &ir.Program{Decls: []ir.Decl{cls, bad}}, BoundViolation)
}

func TestCoverageProbesFire(t *testing.T) {
	b := types.NewBuiltins()
	cov := coverage.NewCollector()
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "f", Ret: b.Int, Body: &ir.Const{Type: b.Int}},
	}}
	Check(p, b, Options{Probes: cov})
	lines, funcs, branches := cov.Counts()
	if funcs == 0 || lines+branches == 0 {
		t.Errorf("expected probe hits, got lines=%d funcs=%d branches=%d", lines, funcs, branches)
	}
}

func TestInferenceCoversMoreProbesThanExplicit(t *testing.T) {
	// The premise of RQ3: erased programs exercise inference-only paths.
	b := types.NewBuiltins()
	classA, classB, ctorA, ctorB := abGeneric()

	explicit := &ir.Program{Decls: []ir.Decl{classA, classB, &ir.FuncDecl{
		Name: "m", Ret: ctorA.Apply(b.String),
		Body: &ir.New{Class: ctorB, TypeArgs: []types.Type{b.String},
			Args: []ir.Expr{&ir.New{Class: ctorA, TypeArgs: []types.Type{b.String}}}},
	}}}
	classA2, classB2, ctorA2, ctorB2 := abGeneric()
	erased := &ir.Program{Decls: []ir.Decl{classA2, classB2, &ir.FuncDecl{
		Name: "m", Ret: ctorA2.Apply(b.String),
		Body: &ir.New{Class: ctorB2,
			Args: []ir.Expr{&ir.New{Class: ctorA2, TypeArgs: []types.Type{b.String}}}},
	}}}

	covE := coverage.NewCollector()
	Check(explicit, b, Options{Probes: covE})
	covI := coverage.NewCollector()
	Check(erased, b, Options{Probes: covI})

	d := covI.NewSites(covE)
	if d.Lines+d.Funcs+d.Branches == 0 {
		t.Error("erased program should cover inference probes the explicit one does not")
	}
	if res := Check(erased, b, Options{}); !res.OK() {
		t.Fatalf("erased program should still type-check: %s", diagsString(res))
	}
}

func TestRecursiveReturnInference(t *testing.T) {
	// fun f() = g(); fun g() = f() — inference must not diverge.
	f := &ir.FuncDecl{Name: "f", Body: &ir.Call{Name: "g"}}
	g := &ir.FuncDecl{Name: "g", Body: &ir.Call{Name: "f"}}
	res := check(t, &ir.Program{Decls: []ir.Decl{f, g}})
	if res.OK() {
		t.Error("mutually recursive return inference should be an error")
	}
}

func TestCastAllowsDowncast(t *testing.T) {
	b := types.NewBuiltins()
	base := &ir.ClassDecl{Name: "Base", Open: true}
	derived := &ir.ClassDecl{Name: "D", Super: &ir.SuperRef{Type: base.Type()}}
	// fun f(): D = (Base() as D) — unchecked casts are always permitted.
	f := &ir.FuncDecl{Name: "f", Ret: derived.Type(), Body: &ir.Cast{
		Expr:   &ir.New{Class: base.Type()},
		Target: derived.Type(),
	}}
	mustOK(t, &ir.Program{Decls: []ir.Decl{base, derived, f}})
	_ = b
}

func TestUnitReturnDiscardsValue(t *testing.T) {
	b := types.NewBuiltins()
	// fun f(): Unit = "anything" — Unit returns discard the value.
	f := &ir.FuncDecl{Name: "f", Ret: b.Unit, Body: &ir.Const{Type: b.String}}
	mustOK(t, &ir.Program{Decls: []ir.Decl{f}})
}

func TestFieldAssignmentMutability(t *testing.T) {
	b := types.NewBuiltins()
	cls := &ir.ClassDecl{Name: "Box", Fields: []*ir.FieldDecl{
		{Name: "rw", Type: b.Int, Mutable: true},
		{Name: "ro", Type: b.Int},
	}}
	mk := func(field string, value ir.Expr) *ir.Program {
		f := &ir.FuncDecl{Name: "f", Ret: b.Unit, Body: &ir.Block{
			Stmts: []ir.Node{
				&ir.VarDecl{Name: "b", Init: &ir.New{Class: cls.Type(),
					Args: []ir.Expr{&ir.Const{Type: b.Int}, &ir.Const{Type: b.Int}}}},
				&ir.Assign{
					Target: &ir.FieldAccess{Recv: &ir.VarRef{Name: "b"}, Field: field},
					Value:  value,
				},
			},
			Value: &ir.Const{Type: b.Unit},
		}}
		return &ir.Program{Decls: []ir.Decl{ir.CloneDecl(cls), f}}
	}
	mustOK(t, mk("rw", &ir.Const{Type: b.Int}))
	mustFail(t, mk("ro", &ir.Const{Type: b.Int}), InvalidAssignment)
	mustFail(t, mk("rw", &ir.Const{Type: b.String}), TypeMismatch)
	mustFail(t, mk("ghost", &ir.Const{Type: b.Int}), UnresolvedReference)
}

func TestNullConformsEverywhere(t *testing.T) {
	b := types.NewBuiltins()
	cls := &ir.ClassDecl{Name: "A", Fields: []*ir.FieldDecl{{Name: "f", Type: b.String}}}
	// Null (Bottom) conforms to any declared type and constructor param.
	f := &ir.FuncDecl{Name: "f", Ret: cls.Type(), Body: &ir.Block{
		Stmts: []ir.Node{
			&ir.VarDecl{Name: "s", DeclType: b.String, Init: &ir.Const{Type: types.Bottom{}}},
		},
		Value: &ir.New{Class: cls.Type(), Args: []ir.Expr{&ir.Const{Type: types.Bottom{}}}},
	}}
	mustOK(t, &ir.Program{Decls: []ir.Decl{cls, f}})
}

func TestIsExpressionTypesAsBoolean(t *testing.T) {
	b := types.NewBuiltins()
	f := &ir.FuncDecl{Name: "f", Ret: b.Boolean, Body: &ir.Is{
		Expr:   &ir.Const{Type: b.Int},
		Target: b.Number,
	}}
	mustOK(t, &ir.Program{Decls: []ir.Decl{f}})
}

func TestCallArityMismatch(t *testing.T) {
	b := types.NewBuiltins()
	g := &ir.FuncDecl{Name: "g", Params: []*ir.ParamDecl{{Name: "x", Type: b.Int}},
		Ret: b.Int, Body: &ir.VarRef{Name: "x"}}
	f := &ir.FuncDecl{Name: "f", Ret: b.Int, Body: &ir.Call{Name: "g"}}
	mustFail(t, &ir.Program{Decls: []ir.Decl{g, f}}, ArityMismatch)
}

func TestExplicitTypeArgArityMismatch(t *testing.T) {
	b := types.NewBuiltins()
	tp := types.NewParameter("g", "T")
	g := &ir.FuncDecl{Name: "g", TypeParams: []*types.Parameter{tp},
		Ret: b.Int, Body: &ir.Const{Type: b.Int}}
	f := &ir.FuncDecl{Name: "f", Ret: b.Int, Body: &ir.Call{
		Name: "g", TypeArgs: []types.Type{b.Int, b.Long},
	}}
	mustFail(t, &ir.Program{Decls: []ir.Decl{g, f}}, ArityMismatch)
}

func TestAbstractAndInterfaceMembers(t *testing.T) {
	b := types.NewBuiltins()
	iface := &ir.ClassDecl{Name: "I", Kind: ir.InterfaceClass, Methods: []*ir.FuncDecl{
		{Name: "m", Ret: b.Int}, // no body: abstract
	}}
	mustOK(t, &ir.Program{Decls: []ir.Decl{iface}})

	// A body-less method in a regular class is illegal.
	bad := &ir.ClassDecl{Name: "C", Methods: []*ir.FuncDecl{{Name: "m", Ret: b.Int}}}
	mustFail(t, &ir.Program{Decls: []ir.Decl{bad}}, IllegalDeclaration)
}

func TestVarDeclWithoutInitializer(t *testing.T) {
	b := types.NewBuiltins()
	f := &ir.FuncDecl{Name: "f", Ret: b.Unit, Body: &ir.Block{
		Stmts: []ir.Node{&ir.VarDecl{Name: "x", DeclType: b.Int}},
		Value: &ir.Const{Type: b.Unit},
	}}
	mustFail(t, &ir.Program{Decls: []ir.Decl{f}}, IllegalDeclaration)
}

func TestDiagnosticRendering(t *testing.T) {
	d := Diagnostic{Kind: BoundViolation, Where: "m", Msg: "oops"}
	if d.String() != "m: bound violation: oops" {
		t.Errorf("diag = %q", d.String())
	}
	kinds := []DiagKind{TypeMismatch, UnresolvedReference, BoundViolation,
		ArityMismatch, InferenceFailure, InvalidAssignment,
		ConditionNotBoolean, IllegalDeclaration, AmbiguousCall, DiagKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty rendering", k)
		}
	}
}

// TestSubjectRendering checks every diagnostic subject against the text
// the checker used to build eagerly at the call site.
func TestSubjectRendering(t *testing.T) {
	cases := []struct {
		got  subject
		want string
	}{
		{named("field ", "x"), "field " + "x"},
		{named("supertype of ", "A"), "supertype of " + "A"},
		{subject{prefix: "super constructor argument ", arg: 2}, fmt.Sprintf("super constructor argument %d", 2)},
		{named("parameter ", "p"), "parameter " + "p"},
		{named("return type of ", "f"), "return type of " + "f"},
		{named("return value of ", "f"), "return value of " + "f"},
		{named("variable ", "v"), "variable " + "v"},
		{named("initializer of ", "v"), "initializer of " + "v"},
		{named("cast target", ""), "cast target"},
		{named("assignment to ", "y"), "assignment to " + "y"},
		{named("lambda body", ""), "lambda body"},
		{argOf("argument ", 0, "m"), fmt.Sprintf("argument %d of %s", 0, "m")},
		{argOf("argument ", 11, ""), fmt.Sprintf("argument %d of %s", 11, "")},
		{named("constructor call of ", "Box"), "constructor call of " + "Box"},
		{argOf("constructor argument ", 1, "Box"), fmt.Sprintf("constructor argument %d of %s", 1, "Box")},
		{named("inferred instantiation of ", "Box"), "inferred instantiation of " + "Box"},
	}
	for _, c := range cases {
		if got := c.got.String(); got != c.want {
			t.Errorf("subject %+v renders %q, want %q", c.got, got, c.want)
		}
		if got := fmt.Sprintf("%s: rest", c.got); got != c.want+": rest" {
			t.Errorf("subject %+v formats as %q in a diagnostic", c.got, got)
		}
	}
}

// TestScopeShadowing pins the lookup rules of the one-slice scope: the
// latest declaration of a name in the innermost frame wins, for its type
// and for its mutability alike.
func TestScopeShadowing(t *testing.T) {
	b := types.NewBuiltins()
	outer := newScope(nil, 2)
	outer.declare("x", b.Int, true)
	outer.declare("y", b.Int, false)
	inner := newScope(outer, 1)
	inner.declare("x", b.String, false)
	inner.declare("x", b.Boolean, true)
	if ty, ok := inner.lookup("x"); !ok || ty != b.Boolean || !inner.isMutable("x") {
		t.Errorf("inner x = %v,%v mutable=%v; want the latest inner declaration", ty, ok, inner.isMutable("x"))
	}
	if ty, ok := inner.lookup("y"); !ok || ty != b.Int || inner.isMutable("y") {
		t.Errorf("inner y = %v,%v; want outer's immutable y", ty, ok)
	}
	if ty, ok := outer.lookup("x"); !ok || ty != b.Int || !outer.isMutable("x") {
		t.Errorf("outer x = %v,%v; inner declarations must not leak out", ty, ok)
	}
	if _, ok := inner.lookup("z"); ok || inner.isMutable("z") {
		t.Error("undeclared z must not resolve")
	}
}
