package reduce

import (
	"context"
	"testing"

	"repro/internal/checker"
	"repro/internal/compilers"
	"repro/internal/coverage"
	"repro/internal/generator"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/types"
)

func TestReducePreservesInterestingness(t *testing.T) {
	b := types.NewBuiltins()
	// Interesting: the program contains a String-typed function f.
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "noise1", Ret: b.Int, Body: &ir.Const{Type: b.Int}},
		&ir.FuncDecl{Name: "f", Ret: b.String, Body: &ir.Block{
			Stmts: []ir.Node{
				&ir.VarDecl{Name: "x", DeclType: b.Int, Init: &ir.Const{Type: b.Int}},
				&ir.VarDecl{Name: "y", DeclType: b.Long, Init: &ir.Const{Type: b.Long}},
			},
			Value: &ir.Const{Type: b.String},
		}},
		&ir.FuncDecl{Name: "noise2", Ret: b.Boolean, Body: &ir.Const{Type: b.Boolean}},
	}}
	keep := func(q *ir.Program) bool {
		for _, f := range q.Functions() {
			if f.Name == "f" && f.Ret != nil && f.Ret.Equal(b.String) {
				return true
			}
		}
		return false
	}
	before := Size(p)
	r := Reduce(p, keep)
	if !keep(r) {
		t.Fatal("reduction lost the property")
	}
	if Size(r) >= before {
		t.Errorf("no shrinking: %d -> %d", before, Size(r))
	}
	if len(r.Functions()) != 1 {
		t.Errorf("noise functions should be dropped, got %d functions", len(r.Functions()))
	}
	// Original untouched.
	if len(p.Functions()) != 3 {
		t.Error("input program must not be modified")
	}
}

func TestReduceCollapsesConditionals(t *testing.T) {
	b := types.NewBuiltins()
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "f", Ret: b.Int, Body: &ir.If{
			Cond: &ir.Const{Type: b.Boolean},
			Then: &ir.Const{Type: b.Int},
			Else: &ir.Const{Type: b.Int},
		}},
	}}
	keep := func(q *ir.Program) bool {
		res := checker.Check(q, b, checker.Options{})
		return res.OK() && len(q.Functions()) == 1
	}
	r := Reduce(p, keep)
	if _, isIf := r.Functions()[0].Body.(*ir.If); isIf {
		t.Errorf("conditional should collapse:\n%s", ir.Print(r))
	}
}

func TestReduceUninterestingInputReturnsQuickly(t *testing.T) {
	b := types.NewBuiltins()
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "f", Ret: b.Int, Body: &ir.Const{Type: b.Int}},
	}}
	r := Reduce(p, func(*ir.Program) bool { return false })
	if Size(r) != Size(p) {
		t.Error("uninteresting input should be returned unreduced")
	}
}

// TestReduceBugTriggeringProgram reduces a generated program while
// preserving "this seeded bug still fires" — the real campaign usage.
func TestReduceBugTriggeringProgram(t *testing.T) {
	comp := compilers.Groovyc()
	var seedProgram *ir.Program
	var bugID string
	for seed := int64(0); seed < 100; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		p := g.Generate()
		res := comp.Compile(p, nil)
		if len(res.Triggered) > 0 {
			seedProgram = p
			bugID = res.Triggered[0].ID
			break
		}
	}
	if seedProgram == nil {
		t.Skip("no bug-triggering program in the seed range")
	}
	keep := func(q *ir.Program) bool {
		res := comp.Compile(q, nil)
		for _, bg := range res.Triggered {
			if bg.ID == bugID {
				return true
			}
		}
		return false
	}
	before := Size(seedProgram)
	r := Reduce(seedProgram, keep)
	if !keep(r) {
		t.Fatal("reduced program no longer triggers the bug")
	}
	t.Logf("reduced %d -> %d nodes while preserving %s", before, Size(r), bugID)
}

func TestReduceDropsClassMembers(t *testing.T) {
	b := types.NewBuiltins()
	cls := &ir.ClassDecl{Name: "C", Methods: []*ir.FuncDecl{
		{Name: "used", Ret: b.Int, Body: &ir.Const{Type: b.Int}},
		{Name: "junk1", Ret: b.Int, Body: &ir.Const{Type: b.Int}},
		{Name: "junk2", Ret: b.Int, Body: &ir.Const{Type: b.Int}},
	}}
	p := &ir.Program{Decls: []ir.Decl{cls}}
	keep := func(q *ir.Program) bool {
		c := q.ClassByName("C")
		return c != nil && c.MethodByName("used") != nil
	}
	r := Reduce(p, keep)
	if got := len(r.ClassByName("C").Methods); got != 1 {
		t.Errorf("want 1 surviving method, got %d", got)
	}
}

// TestForBugPreservesBug: reduction through the harness sandbox keeps
// the bug it reduces for.
func TestForBugPreservesBug(t *testing.T) {
	comp := compilers.Groovyc()
	for seed := int64(0); seed < 60; seed++ {
		prog := generator.New(generator.DefaultConfig().WithSeed(seed)).Generate()
		res := comp.Compile(prog, nil)
		if len(res.Triggered) == 0 {
			continue
		}
		bugID := res.Triggered[0].ID
		reduced := ForBug(prog, harness.WrapCompiler(comp), bugID, harness.Options{})
		if !comp.Compile(reduced, nil).Triggers(bugID) {
			t.Fatalf("seed %d: reduction lost bug %s", seed, bugID)
		}
		if ir.CountNodes(reduced) > ir.CountNodes(prog) {
			t.Fatalf("seed %d: reduction grew the program", seed)
		}
		return
	}
	t.Skip("no triggering seed in range")
}

// panicEveryNth delegates to a real compiler but panics on every nth
// compile — a compiler that falls over partway into a reduction.
type panicEveryNth struct {
	inner harness.Target
	n     int
	calls int
}

func (p *panicEveryNth) Name() string { return p.inner.Name() }

func (p *panicEveryNth) Compile(ctx context.Context, prog *ir.Program, cov coverage.Recorder) (*compilers.Result, error) {
	p.calls++
	if p.calls%p.n == 0 {
		panic("compiler segfault during reduction")
	}
	return p.inner.Compile(ctx, prog, cov)
}

func TestReduceSurvivesPanickingCompiler(t *testing.T) {
	comp := compilers.Groovyc()
	for seed := int64(0); seed < 60; seed++ {
		prog := generator.New(generator.DefaultConfig().WithSeed(seed)).Generate()
		res := comp.Compile(prog, nil)
		if len(res.Triggered) == 0 {
			continue
		}
		bugID := res.Triggered[0].ID
		// Every 3rd probe panics; the sandbox must turn each panic into
		// a Crashed invocation instead of killing the reducer, and the
		// reduction must still preserve the bug.
		flaky := &panicEveryNth{inner: harness.WrapCompiler(comp), n: 3}
		reduced := ForBug(prog, flaky, bugID, harness.Options{})
		if flaky.calls == 0 {
			t.Fatal("reducer never probed the target")
		}
		if !comp.Compile(reduced, nil).Triggers(bugID) {
			t.Fatalf("seed %d: reduction under a panicking compiler lost bug %s", seed, bugID)
		}
		return
	}
	t.Skip("no triggering seed in range")
}
