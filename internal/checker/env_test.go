package checker

import (
	"testing"

	"repro/internal/governor"
	"repro/internal/ir"
	"repro/internal/types"
)

// envFixture builds:
//
//	open class Base<T>(val item: T) { fun get(): T = item }
//	class Derived(val extra: Int) : Base<String>("s") { fun own(): Int = extra }
func envFixture() (*Env, *ir.ClassDecl, *ir.ClassDecl, *types.Builtins) {
	b := types.NewBuiltins()
	baseT := types.NewParameter("Base", "T")
	base := &ir.ClassDecl{
		Name:       "Base",
		TypeParams: []*types.Parameter{baseT},
		Open:       true,
		Fields:     []*ir.FieldDecl{{Name: "item", Type: baseT}},
		Methods: []*ir.FuncDecl{{
			Name: "get", Ret: baseT, Body: &ir.VarRef{Name: "item"},
		}},
	}
	baseCtor := base.Type().(*types.Constructor)
	derived := &ir.ClassDecl{
		Name:   "Derived",
		Super:  &ir.SuperRef{Type: baseCtor.Apply(b.String), Args: []ir.Expr{&ir.Const{Type: b.String}}},
		Fields: []*ir.FieldDecl{{Name: "extra", Type: b.Int}},
		Methods: []*ir.FuncDecl{{
			Name: "own", Ret: b.Int, Body: &ir.VarRef{Name: "extra"},
		}},
	}
	p := &ir.Program{Decls: []ir.Decl{base, derived}}
	return NewEnv(p, b), base, derived, b
}

func TestEnvLookups(t *testing.T) {
	env, base, derived, _ := envFixture()
	if env.Class("Base") != base || env.Class("Derived") != derived {
		t.Error("class lookup broken")
	}
	if env.Class("Nope") != nil {
		t.Error("unknown class should be nil")
	}
	if env.Func("whatever") != nil {
		t.Error("unknown function should be nil")
	}
}

func TestFieldsOfWalksHierarchyWithSubstitution(t *testing.T) {
	env, _, derived, b := envFixture()
	fields := env.FieldsOf(derived.Type())
	if len(fields) != 2 {
		t.Fatalf("FieldsOf(Derived) = %d fields, want 2", len(fields))
	}
	// Own field first, then the inherited one with T substituted.
	item, ok := env.FieldOf(derived.Type(), "item")
	if !ok {
		t.Fatal("inherited field not found")
	}
	if !item.Type.Equal(b.String) {
		t.Errorf("inherited item should have substituted type String, got %s", item.Type)
	}
	if item.Owner.Name != "Base" {
		t.Errorf("owner should be Base, got %s", item.Owner.Name)
	}
	if _, ok := env.FieldOf(derived.Type(), "ghost"); ok {
		t.Error("unknown field should not resolve")
	}
}

func TestMethodsOfWalksHierarchyWithSubstitution(t *testing.T) {
	env, _, derived, b := envFixture()
	sig, ok := env.MethodOf(derived.Type(), "get")
	if !ok {
		t.Fatal("inherited method not found")
	}
	if !sig.Ret.Equal(b.String) {
		t.Errorf("inherited get should return String, got %s", sig.Ret)
	}
	own, ok := env.MethodOf(derived.Type(), "own")
	if !ok || !own.Ret.Equal(b.Int) {
		t.Error("own method lookup broken")
	}
	if len(env.MethodsOf(derived.Type())) != 2 {
		t.Errorf("MethodsOf(Derived) = %d, want 2", len(env.MethodsOf(derived.Type())))
	}
}

func TestMethodCandidatesCollectsOverloads(t *testing.T) {
	b := types.NewBuiltins()
	base := &ir.ClassDecl{Name: "Base", Open: true, Methods: []*ir.FuncDecl{{
		Name: "m", Params: []*ir.ParamDecl{{Name: "x", Type: b.Int}},
		Ret: b.Int, Body: &ir.Const{Type: b.Int},
	}}}
	derived := &ir.ClassDecl{
		Name:  "Derived",
		Super: &ir.SuperRef{Type: base.Type()},
		Methods: []*ir.FuncDecl{{
			Name: "m", Params: []*ir.ParamDecl{{Name: "x", Type: b.Int}, {Name: "y", Type: b.Int}},
			Ret: b.Int, Body: &ir.Const{Type: b.Int},
		}},
	}
	env := NewEnv(&ir.Program{Decls: []ir.Decl{base, derived}}, b)
	cands := env.MethodCandidates(derived.Type(), "m")
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2 (own + inherited)", len(cands))
	}
	// Subclass-first order.
	if len(cands[0].Params) != 2 || len(cands[1].Params) != 1 {
		t.Error("candidates must be ordered subclass-first")
	}
	// MethodOf still returns the first.
	sig, _ := env.MethodOf(derived.Type(), "m")
	if len(sig.Params) != 2 {
		t.Error("MethodOf should return the subclass overload")
	}
}

func TestReceiverSubstitutionThroughParameterBound(t *testing.T) {
	env, base, _, b := envFixture()
	baseCtor := base.Type().(*types.Constructor)
	// A type parameter bounded by Base<Int> exposes Base's members.
	tp := &types.Parameter{Owner: "f", ParamName: "X", Bound: baseCtor.Apply(b.Int)}
	sig, ok := env.MethodOf(tp, "get")
	if !ok {
		t.Fatal("member lookup through a parameter bound failed")
	}
	if !sig.Ret.Equal(b.Int) {
		t.Errorf("get through X : Base<Int> should return Int, got %s", sig.Ret)
	}
}

func TestProjectionReceiverUsesBound(t *testing.T) {
	env, base, _, b := envFixture()
	baseCtor := base.Type().(*types.Constructor)
	recv := baseCtor.Apply(&types.Projection{Var: types.Covariant, Bound: b.Number})
	sig, ok := env.MethodOf(recv, "get")
	if !ok {
		t.Fatal("member lookup on projected receiver failed")
	}
	if !sig.Ret.Equal(b.Number) {
		t.Errorf("get on Base<out Number> approximates to Number, got %s", sig.Ret)
	}
}

func TestSelfTypeAndConstructorParams(t *testing.T) {
	env, base, derived, b := envFixture()
	self := SelfType(base)
	app, ok := self.(*types.App)
	if !ok || app.Ctor.TypeName != "Base" {
		t.Fatalf("SelfType(Base) = %v", self)
	}
	if _, isParam := app.Args[0].(*types.Parameter); !isParam {
		t.Error("self type must be applied to the class's own parameters")
	}
	if simple, ok := SelfType(derived).(*types.Simple); !ok || simple.TypeName != "Derived" {
		t.Error("SelfType of unparameterized class is its simple type")
	}
	// Constructor params of an instantiated Base.
	sigma := types.NewSubstitution()
	sigma.Bind(base.TypeParams[0], b.Long)
	params := env.ConstructorParams(base, sigma)
	if len(params) != 1 || !params[0].Equal(b.Long) {
		t.Errorf("ConstructorParams = %v", params)
	}
}

func TestTopLevelSig(t *testing.T) {
	b := types.NewBuiltins()
	f := &ir.FuncDecl{Name: "f", Params: []*ir.ParamDecl{{Name: "x", Type: b.Int}},
		Ret: b.String, Body: &ir.Const{Type: b.String}}
	env := NewEnv(&ir.Program{Decls: []ir.Decl{f}}, b)
	sig, ok := env.TopLevelSig("f")
	if !ok || sig.Ret == nil || !sig.Ret.Equal(b.String) {
		t.Error("top-level signature lookup broken")
	}
	if sig.ParamNames[0] != "x" || !sig.Params[0].Equal(b.Int) {
		t.Error("parameter projection broken")
	}
	if _, ok := env.TopLevelSig("nope"); ok {
		t.Error("unknown function should not resolve")
	}
}

// TestSimpleReceiversCarryNilSigma pins the nil-substitution convention:
// a Simple receiver's members and a top-level function are viewed under a
// nil Sigma, and ApplyB through it is the identity, which the checker's
// inferred-return paths rely on.
func TestSimpleReceiversCarryNilSigma(t *testing.T) {
	env, _, derived, b := envFixture()
	f := &ir.FuncDecl{Name: "f", Body: &ir.Const{Type: b.Int}}
	env = NewEnv(&ir.Program{Decls: append(env.Program.Decls, f)}, b)
	own, ok := env.MethodOf(derived.Type(), "own")
	if !ok || own.Sigma != nil {
		t.Fatalf("Derived.own: Sigma = %v, want nil", own.Sigma)
	}
	// The inherited method is viewed under Base<String>, which does bind.
	if get, _ := env.MethodOf(derived.Type(), "get"); get.Sigma == nil || get.Sigma.Len() != 1 {
		t.Errorf("Derived.get: Sigma = %v, want [Base.T ↦ String]", get.Sigma)
	}
	for _, m := range env.MethodsOf(derived.Type()) {
		if m.Name == "own" && m.Sigma != nil {
			t.Errorf("MethodsOf(Derived).own: Sigma = %v, want nil", m.Sigma)
		}
	}
	top, ok := env.TopLevelSig("f")
	if !ok || top.Sigma != nil {
		t.Fatalf("TopLevelSig(f): Sigma = %v, want nil", top.Sigma)
	}
	if len(env.FieldsOf(derived.Type())) != 2 {
		t.Fatal("FieldsOf(Derived) must still see both fields")
	}
	tp := types.NewParameter("f", "T")
	budget := governor.New(0, 0)
	for _, in := range []types.Type{b.Int, tp, nil} {
		if got := top.Sigma.ApplyB(budget, in); got != in {
			t.Errorf("nil Sigma applied to %v = %v, want it unchanged", in, got)
		}
	}
	if budget.Spent() != 0 {
		t.Errorf("applying a nil Sigma charged %d steps, want 0", budget.Spent())
	}
}

func TestEnvString(t *testing.T) {
	env, _, _, _ := envFixture()
	if env.String() != "Env(2 classes, 0 functions)" {
		t.Errorf("String() = %s", env)
	}
}
