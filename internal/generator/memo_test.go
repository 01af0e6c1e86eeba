package generator

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/types"
)

// TestConformingTypeReusesBuiltinPool pins the per-program memo: a bound
// asked for again reuses its builtin pool, so the call allocates nothing,
// and Generate starts the next program with an empty memo.
func TestConformingTypeReusesBuiltinPool(t *testing.T) {
	g := New(DefaultConfig().WithSeed(7))
	g.Generate()
	bound := g.b.Number
	g.conformingType(bound, nil, 0)
	pool := g.builtinPools[bound]
	if len(pool) != 7 { // Number and its six numeric subtypes
		t.Fatalf("builtin pool of Number = %v, want the seven numeric builtins", pool)
	}
	if got := testing.AllocsPerRun(100, func() { g.conformingType(bound, nil, 0) }); got != 0 {
		t.Errorf("repeated conformingType(Number): %.0f allocs/op, want 0", got)
	}
	for _, next := range []func() *ir.Program{g.Generate, g.GenerateStress} {
		next()
		for cls := range g.classTypes {
			if !slices.Contains(g.classes, cls) {
				t.Errorf("class type memo holds %s from an earlier program", cls.Name)
			}
		}
	}
}

// TestMayReachIsSound checks the pruning rule against the relation: over
// generated programs, an instantiation of a class that mayReach rules out
// is never a subtype of the bound.
func TestMayReachIsSound(t *testing.T) {
	pruned := 0
	for seed := int64(0); seed < 60; seed++ {
		g := New(DefaultConfig().WithSeed(seed))
		g.Generate()
		bounds := append([]types.Type{}, g.b.All()...)
		for _, cls := range g.classes {
			bounds = append(bounds, selfType(g.classType(cls)))
		}
		for _, cls := range g.classes {
			ctor, ok := g.classType(cls).(*types.Constructor)
			if !ok {
				continue
			}
			inst := selfType(ctor)
			for _, bound := range bounds {
				if !mayReach(ctor, bound) {
					pruned++
					if types.IsSubtype(inst, bound) {
						t.Errorf("seed %d: mayReach(%s, %s) = false, but %s <: %s", seed, ctor, bound, inst, bound)
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Error("mayReach never pruned: the test exercises nothing")
	}
}

// selfType applies a constructor to its own parameters; other types are
// returned as they are.
func selfType(t types.Type) types.Type {
	ctor, ok := t.(*types.Constructor)
	if !ok {
		return t
	}
	return ctor.Self()
}
