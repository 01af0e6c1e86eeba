package mutation

import (
	"math/rand"
	"testing"

	"repro/internal/checker"
	"repro/internal/generator"
	"repro/internal/ir"
)

// TestTEMOnGeneratedPrograms verifies the central TEM guarantee
// (Section 3.4.1, "Remarks"): by construction, TEM yields well-typed
// programs. We run it over many generator seeds; each mutant must still be
// accepted by the reference checker.
func TestTEMOnGeneratedPrograms(t *testing.T) {
	erasedSomething := 0
	for seed := int64(0); seed < 150; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		p := g.Generate()
		mutant, report := TypeErasure(p, g.Builtins())
		if report.Changed() {
			erasedSomething++
		}
		res := checker.Check(mutant, g.Builtins(), checker.Options{})
		if !res.OK() {
			t.Fatalf("seed %d: TEM mutant is ill-typed: %v\nerased: %v\nmutant:\n%s",
				seed, res.Diags, report.Erased, ir.Print(mutant))
		}
	}
	if erasedSomething < 100 {
		t.Errorf("TEM erased something in only %d/150 programs; mutation too weak", erasedSomething)
	}
}

// TestTOMOnGeneratedPrograms verifies the central TOM guarantee
// (Section 3.4.2): the mutated program is ill-typed, so a compiler
// accepting it has a soundness bug.
func TestTOMOnGeneratedPrograms(t *testing.T) {
	mutated := 0
	for seed := int64(0); seed < 150; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		p := g.Generate()
		rng := rand.New(rand.NewSource(seed))
		mutant, report := TypeOverwriting(p, g.Builtins(), rng)
		if mutant == nil {
			continue
		}
		mutated++
		res := checker.Check(mutant, g.Builtins(), checker.Options{})
		if res.OK() {
			t.Fatalf("seed %d: TOM mutant is well-typed but must not be\nreport: %s\nmutant:\n%s",
				seed, report, ir.Print(mutant))
		}
	}
	if mutated < 100 {
		t.Errorf("TOM found a mutation point in only %d/150 programs", mutated)
	}
}

// TestTEMIncreasesInferencePressure: TEM's purpose is to exercise
// inference engines. Count omitted-type sites before and after.
func TestTEMIncreasesInferencePressure(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		p := g.Generate()
		mutant, report := TypeErasure(p, g.Builtins())
		if !report.Changed() {
			continue
		}
		if omittedTypes(mutant) <= omittedTypes(p) {
			t.Errorf("seed %d: TEM did not increase omitted-type sites", seed)
		}
	}
}

func omittedTypes(p *ir.Program) int {
	n := 0
	ir.Walk(p, func(node ir.Node) bool {
		switch t := node.(type) {
		case *ir.VarDecl:
			if t.DeclType == nil {
				n++
			}
		case *ir.New:
			if t.TypeArgs == nil {
				n++
			}
		case *ir.Call:
			if t.TypeArgs == nil {
				n++
			}
		case *ir.FuncDecl:
			if t.Ret == nil {
				n++
			}
		}
		return true
	})
	return n
}

// TestTEMReportsCapHit checks the cap-hit flag on a seed whose search
// exhausts the program-wide budget (seed 4) and one that stays far below
// it (seed 5).
func TestTEMReportsCapHit(t *testing.T) {
	for seed, want := range map[int64]bool{4: true, 5: false} {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		_, r := TypeErasure(g.Generate(), g.Builtins())
		if r.CapHit != want || r.CapHit != (r.CombinationsTried > MaxCombinations) {
			t.Errorf("seed %d: CapHit = %v after %d combinations, want %v", seed, r.CapHit, r.CombinationsTried, want)
		}
	}
}
