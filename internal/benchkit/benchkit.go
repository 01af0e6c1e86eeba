// Package benchkit holds the component benchmark tier as plain functions
// usable both from `go test -bench` (bench_test.go delegates here) and from
// cmd/bench, which runs them programmatically via testing.Benchmark to emit
// machine-readable BENCH_*.json files and diff them against prior runs.
//
// Each Spec measures one pipeline stage in isolation: generation, the
// reference checker, type-graph construction, the two mutations, each
// language translator, unification, subtyping, batch compilation, and
// one input's Execute stage across the three compilers —
// the hot paths the performance pass (see DESIGN.md "Performance")
// optimizes and the regression harness guards.
package benchkit

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/checker"
	"repro/internal/compilers"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/mutation"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/translate"
	"repro/internal/typegraph"
	"repro/internal/types"
)

// Spec names one component benchmark. Names use the testing convention
// ("TypeCheck", "Translate/kotlin") so output lines match `go test -bench`.
type Spec struct {
	Name string
	Fn   func(b *testing.B)
}

// Specs returns the component benchmark tier in stable order.
func Specs() []Spec {
	return []Spec{
		{"Generation", Generation},
		{"TypeCheck", TypeCheck},
		{"TypeGraph", TypeGraph},
		{"TEM", TEM},
		{"TOM", TOM},
		{"Translate/kotlin", TranslateLang(translate.NewKotlin())},
		{"Translate/java", TranslateLang(translate.NewJava())},
		{"Translate/groovy", TranslateLang(translate.NewGroovy())},
		{"Unify", Unify},
		{"Subtype", Subtype},
		{"SubtypeReflexive", SubtypeReflexive},
		{"BatchCompilation", BatchCompilation},
		{"ExecuteInput", ExecuteInput},
	}
}

// Get returns the named Spec's body, or nil.
func Get(name string) func(b *testing.B) {
	for _, s := range Specs() {
		if s.Name == name {
			return s.Fn
		}
	}
	return nil
}

// benchPrograms generates a fixed rotation of programs outside the timed
// region.
func benchPrograms(n int) []*ir.Program {
	progs := make([]*ir.Program, n)
	for i := range progs {
		progs[i] = generator.New(generator.DefaultConfig().WithSeed(int64(i))).Generate()
	}
	return progs
}

// Generation measures raw program generation throughput.
func Generation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generator.New(generator.DefaultConfig().WithSeed(int64(i))).Generate()
	}
}

// TypeCheck measures the reference checker on generated programs.
func TypeCheck(b *testing.B) {
	progs := benchPrograms(8)
	bt := types.NewBuiltins()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker.Check(progs[i%len(progs)], bt, checker.Options{})
	}
}

// TypeGraph measures type-graph construction for all methods of a program
// (the analysis underlying both mutations).
func TypeGraph(b *testing.B) {
	prog := generator.New(generator.DefaultConfig().WithSeed(1)).Generate()
	bt := types.NewBuiltins()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := typegraph.Analyze(prog, bt)
		a.BuildAll()
	}
}

// TEM measures the full type erasure mutation.
func TEM(b *testing.B) {
	progs := benchPrograms(8)
	bt := types.NewBuiltins()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mutation.TypeErasure(progs[i%len(progs)], bt)
	}
}

// TOM measures the full type overwriting mutation.
func TOM(b *testing.B) {
	progs := benchPrograms(8)
	bt := types.NewBuiltins()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mutation.TypeOverwriting(progs[i%len(progs)], bt, rand.New(rand.NewSource(int64(i))))
	}
}

// TranslateLang measures one language translator.
func TranslateLang(tr translate.Translator) func(b *testing.B) {
	return func(b *testing.B) {
		prog := generator.New(generator.DefaultConfig().WithSeed(2)).Generate()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Translate(prog)
		}
	}
}

// Unify measures type unification on hierarchy-related parameterized types
// (Definition 3.2).
func Unify(b *testing.B) {
	bt := types.NewBuiltins()
	aT := types.NewParameter("A", "T")
	ctorA := types.NewConstructor("A", []*types.Parameter{aT}, nil)
	bT := types.NewParameter("B", "T")
	ctorB := types.NewConstructor("B", []*types.Parameter{bT}, ctorA.Apply(bT))
	tp := types.NewParameter("m", "T")
	left := ctorB.Apply(ctorA.Apply(tp))
	right := ctorA.Apply(ctorA.Apply(bt.Long))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		types.Unify(left, right)
	}
}

// Subtype measures the subtyping relation on distinct nested generics:
// A<A<A<Int>>> <: A<out A<out A<out Number>>> exercises projection
// containment at every nesting level (A's parameter is invariant, so the
// out-projection is required per level for the relation to hold). An
// earlier version of this benchmark passed the same type on both sides,
// which short-circuits in Equal and measured nothing; SubtypeReflexive
// keeps that case under its honest name.
func Subtype(b *testing.B) {
	bt := types.NewBuiltins()
	aT := types.NewParameter("A", "T")
	ctorA := types.NewConstructor("A", []*types.Parameter{aT}, nil)
	sub := ctorA.Apply(ctorA.Apply(ctorA.Apply(bt.Int)))
	out := func(t types.Type) types.Type { return &types.Projection{Var: types.Covariant, Bound: t} }
	sup := ctorA.Apply(out(ctorA.Apply(out(ctorA.Apply(out(bt.Number))))))
	if !types.IsSubtype(sub, sup) {
		b.Fatal("benchmark fixture: expected A<A<A<Int>>> <: A<out A<out A<out Number>>>")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		types.IsSubtype(sub, sup)
	}
}

// SubtypeReflexive measures the reflexive fast path IsSubtype(t, t).
func SubtypeReflexive(b *testing.B) {
	bt := types.NewBuiltins()
	aT := types.NewParameter("A", "T")
	ctorA := types.NewConstructor("A", []*types.Parameter{aT}, nil)
	sub := ctorA.Apply(ctorA.Apply(ctorA.Apply(bt.Int)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		types.IsSubtype(sub, sub)
	}
}

// BatchCompilation measures the Section 3.5 batching pipeline: generating
// and compiling a batch of packaged programs.
func BatchCompilation(b *testing.B) {
	comp := compilers.Groovyc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := generator.New(generator.DefaultConfig().WithSeed(int64(i)))
		for _, p := range g.GenerateBatch(10) {
			comp.Compile(p, nil)
		}
	}
}

// ExecuteInput measures the Execute stage on one generated program: the
// program compiled by all three compilers through the default harness.
func ExecuteInput(b *testing.B) {
	progs := benchPrograms(8)
	exec := &pipeline.Execute{Compilers: compilers.All()}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := &pipeline.Unit{Seed: int64(i), Inputs: []pipeline.Input{{Kind: oracle.Generated, Prog: progs[i%len(progs)]}}}
		if err := exec.Run(ctx, u); err != nil {
			b.Fatal(err)
		}
	}
}
